package graph

import (
	"slices"
	"sort"
)

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

// BFSOut returns, for every node, its forward (out-edge) BFS distance from
// src, or -1 if unreachable. Used by tests and by affected-area analysis.
func BFSOut(g *Graph, src NodeID) []int {
	return bfs(g.NumNodes(), src, g.Out)
}

// BFSIn is BFSOut over reverse (in-edge) direction.
func BFSIn(g *Graph, src NodeID) []int {
	return bfs(g.NumNodes(), src, g.In)
}

func bfs(n int, src NodeID, adj func(NodeID) []NodeID) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// ReachableWithin returns the set of nodes reachable from src by following
// out-edges in at most depth hops, including src itself. CrashSim-T's
// delta pruning uses this to compute the affected area of a changed edge
// (Theorem 2: the l_max-1 length reachable nodes of the edge head).
func ReachableWithin(g *Graph, src NodeID, depth int) []NodeID {
	seen := map[NodeID]struct{}{src: {}}
	frontier := []NodeID{src}
	result := []NodeID{src}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []NodeID
		for _, v := range frontier {
			for _, u := range g.Out(v) {
				if _, ok := seen[u]; ok {
					continue
				}
				seen[u] = struct{}{}
				next = append(next, u)
				result = append(result, u)
			}
		}
		frontier = next
	}
	slices.Sort(result)
	return result
}
