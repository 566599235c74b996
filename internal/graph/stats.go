package graph

import "sort"

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
	MedianInDeg int
	DanglingIn  int // nodes with InDegree == 0
	DanglingOut int // nodes with OutDegree == 0
}

// ComputeStats scans g once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.Directed()}
	if s.Nodes == 0 {
		return s
	}
	inDegs := make([]int, s.Nodes)
	totalIn := 0
	for v := NodeID(0); int(v) < s.Nodes; v++ {
		in, out := g.InDegree(v), g.OutDegree(v)
		inDegs[v] = in
		totalIn += in
		if in > s.MaxInDeg {
			s.MaxInDeg = in
		}
		if out > s.MaxOutDeg {
			s.MaxOutDeg = out
		}
		if in == 0 {
			s.DanglingIn++
		}
		if out == 0 {
			s.DanglingOut++
		}
	}
	s.MeanInDeg = float64(totalIn) / float64(s.Nodes)
	sort.Ints(inDegs)
	s.MedianInDeg = inDegs[s.Nodes/2]
	return s
}
