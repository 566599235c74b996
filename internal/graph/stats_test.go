package graph

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestComputeStats(t *testing.T) {
	g := PaperExample()
	s := ComputeStats(g)
	if s.Nodes != 8 || s.Edges != 15 || !s.Directed {
		t.Errorf("basic stats wrong: %+v", s)
	}
	if s.MaxInDeg != 3 { // I(C) = {A, B, D}
		t.Errorf("MaxInDeg = %d, want 3", s.MaxInDeg)
	}
	if s.DanglingIn != 0 {
		t.Errorf("DanglingIn = %d, want 0 (every example node has an in-neighbor)", s.DanglingIn)
	}
	if want := 15.0 / 8.0; s.MeanInDeg != want {
		t.Errorf("MeanInDeg = %g, want %g", s.MeanInDeg, want)
	}
	// In-degrees in ascending order: F G | A B D E H | C = 1 1 2 2 2 2 2 3.
	if s.MedianInDeg != 2 {
		t.Errorf("MedianInDeg = %d, want 2", s.MedianInDeg)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g, _ := NewBuilder(0, true).Freeze()
	s := ComputeStats(g)
	if s.Nodes != 0 || s.Edges != 0 {
		t.Errorf("empty stats: %+v", s)
	}
}

// statsBySort is the sort-based ComputeStats the histogram replaced:
// copy every in-degree, sort, and read the median at rank n/2.
func statsBySort(g *Graph) Stats {
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

// TestComputeStatsMatchesSort: every Stats field equals the sort-based
// reference's on random directed and undirected graphs from empty to
// dense, on skewed ones, on one node, on all-dangling graphs, and on
// two nodes with one arc, where the upper and lower medians differ.
func TestComputeStatsMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	graphs := map[string]*Graph{
		"empty":           NewBuilder(0, true).MustFreeze(),
		"one node":        NewBuilder(1, false).MustFreeze(),
		"all dangling":    NewBuilder(9, true).MustFreeze(),
		"one arc":         NewBuilder(2, true).AddEdge(0, 1).MustFreeze(),
		"undirected pair": NewBuilder(2, false).AddEdge(0, 1).MustFreeze(),
	}
	// Stars: every in-arc on one hub, or the in-degrees 0..n-1, so most
	// degrees lie far above the median.
	for _, n := range []int{3, 10, 33} {
		hub, ladder := NewBuilder(n, true), NewBuilder(n, true)
		for v := 1; v < n; v++ {
			hub.AddEdge(NodeID(v), 0)
			for x := 0; x < v; x++ {
				ladder.AddEdge(NodeID(x), NodeID(v))
			}
		}
		graphs[fmt.Sprintf("hub %d", n)] = hub.MustFreeze()
		graphs[fmt.Sprintf("ladder %d", n)] = ladder.MustFreeze()
	}
	for i := 0; i < 200; i++ {
		n := 2 + r.IntN(40)
		m := r.IntN(n * (n - 1) / 2)
		directed := i%2 == 0
		_, edges := randomArcs(r, n, m, directed)
		g := NewBuilder(n, directed).AddEdges(edges).MustFreeze()
		graphs[fmt.Sprintf("random %d", i)] = g
	}
	for name, g := range graphs {
		if got, want := ComputeStats(g), statsBySort(g); got != want {
			t.Errorf("%s (n=%d, m=%d, directed=%v): ComputeStats %+v, sort reference %+v",
				name, g.NumNodes(), g.NumEdges(), g.Directed(), got, want)
		}
	}
}

// BenchmarkComputeStats prices ComputeStats on a uniform random
// directed graph of serve-index's size, 150k nodes and 600k arcs.
func BenchmarkComputeStats(b *testing.B) {
	r := rand.New(rand.NewPCG(5, 6))
	const n = 150000
	_, edges := randomArcs(r, n, 4*n, true)
	g := NewBuilder(n, true).AddEdges(edges).MustFreeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStats = ComputeStats(g)
	}
}

var benchStats Stats
