package graph

// Stats summarizes the structural properties that govern the cost of
// SimRank computation: size, degree distribution skew, and the number of
// dangling nodes (nodes with no in-neighbors, where √c-walks terminate).
type Stats struct {
	Nodes       int
	Edges       int
	Directed    bool
	MaxInDeg    int
	MaxOutDeg   int
	MeanInDeg   float64
	MedianInDeg int // upper median: the in-degree at rank Nodes/2 in ascending order
	DanglingIn  int // nodes with InDegree == 0
	DanglingOut int // nodes with OutDegree == 0
}

// ComputeStats returns g's Stats from one pass over its offset arrays.
// The median comes from an in-degree histogram, not a sort.
func ComputeStats(g *Graph) Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.Directed()}
	if s.Nodes == 0 {
		return s
	}
	total := int(g.inOff[s.Nodes])
	s.MeanInDeg = float64(total) / float64(s.Nodes)
	// Fewer than half the nodes can have an in-degree above twice the
	// mean (Markov's inequality), so the upper median is at most
	// 2·mean ≤ 2·⌊mean⌋+1; every degree above that shares the last
	// bucket, which the median never reaches.
	counts := make([]int, 2*(total/s.Nodes)+3)
	last := len(counts) - 1
	for v := 0; v < s.Nodes; v++ {
		in, out := int(g.inOff[v+1]-g.inOff[v]), int(g.outOff[v+1]-g.outOff[v])
		s.MaxInDeg = max(s.MaxInDeg, in)
		s.MaxOutDeg = max(s.MaxOutDeg, out)
		counts[min(in, last)]++
		if out == 0 {
			s.DanglingOut++
		}
	}
	s.DanglingIn = counts[0]
	// The upper median is the smallest degree with more than Nodes/2
	// nodes at or below it.
	below := 0
	for d, c := range counts {
		if below += c; below > s.Nodes/2 {
			s.MedianInDeg = d
			break
		}
	}
	return s
}
