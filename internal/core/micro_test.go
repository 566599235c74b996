package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func TestDiffNodes(t *testing.T) {
	g := graph.PaperExample()
	A := graph.PaperNode("A")
	a := RevReach(g, A, 0.6, 8, TransitionExact)
	b := RevReach(g, A, 0.6, 8, TransitionExact)
	if diff := a.DiffNodes(b, 0); len(diff) != 0 {
		t.Errorf("identical trees diff: %v", diff)
	}
	if diff := a.DiffNodes(nil, 0); len(diff) == 0 {
		t.Error("diff against nil should cover the whole support")
	}

	// Change an edge inside A's reverse reach and verify the diff set
	// contains the propagation frontier.
	d := graph.NewDiGraph(8, true)
	for _, e := range g.Edges() {
		if err := d.AddEdge(e.X, e.Y); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.RemoveEdge(graph.PaperNode("H"), graph.PaperNode("E")); err != nil {
		t.Fatal(err)
	}
	after := RevReach(d.Freeze(), A, 0.6, 8, TransitionExact)
	diff := a.DiffNodes(after, 1e-12)
	if len(diff) == 0 {
		t.Fatal("edge removal inside the tree produced no diff")
	}
	found := false
	for _, v := range diff {
		if v == graph.PaperNode("H") {
			found = true
		}
	}
	if !found {
		t.Errorf("diff %v does not contain H, whose mass vanished", diff)
	}
	for i := 1; i < len(diff); i++ {
		if diff[i-1] >= diff[i] {
			t.Errorf("DiffNodes not sorted: %v", diff)
		}
	}
}

func TestForwardReach(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, 4 isolated.
	g := graph.NewBuilder(5, true).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).MustFreeze()
	r := forwardReach(g, []graph.NodeID{0}, 2)
	for _, v := range []graph.NodeID{0, 1, 2} {
		if _, ok := r[v]; !ok {
			t.Errorf("node %d missing from depth-2 reach", v)
		}
	}
	if _, ok := r[3]; ok {
		t.Error("node 3 reachable only at depth 3 included at depth 2")
	}
	// Multi-source union.
	r = forwardReach(g, []graph.NodeID{0, 3}, 1)
	if len(r) != 3 { // {0, 1, 3}
		t.Errorf("multi-source reach = %v", r)
	}
	if len(forwardReach(g, nil, 5)) != 0 {
		t.Error("empty sources should reach nothing")
	}
}

// TestPrefilterExactness: the zero-score prefilter must not change any
// score — candidates it drops are exactly those that would have scored
// zero anyway. Compare against a run on a graph where nothing can be
// filtered (every node reaches the source's neighborhood).
func TestPrefilterExactness(t *testing.T) {
	// Chain with a detached tail: 3 -> 2 -> 1 -> 0 plus unreachable 4, 5
	// (4 -> 5 only). Candidates 4 and 5 can never crash into 0's tree.
	g := graph.NewBuilder(6, true).
		AddEdge(3, 2).AddEdge(2, 1).AddEdge(1, 0).AddEdge(4, 5).
		MustFreeze()
	s, err := SingleSource(g, 0, nil, Params{Iterations: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s[4] != 0 || s[5] != 0 {
		t.Errorf("unreachable candidates scored: s(0,4)=%g s(0,5)=%g", s[4], s[5])
	}
	if s[0] != 1 {
		t.Errorf("self score = %g", s[0])
	}
	// Nodes on the chain share no in-neighbors with 0 (walks from 0 die
	// immediately: I(0) = {1}, I(1) = {2}, ... no co-location possible
	// except along the chain at shifted offsets, which never align).
	// What matters here is that the filter kept them (in-reach of the
	// tree) and the estimator ran.
	if len(s) != 6 {
		t.Errorf("result has %d entries, want 6", len(s))
	}
}

func TestSampleWalkGeometricLength(t *testing.T) {
	// On a graph where every node has in-neighbors, the walk length is
	// geometric with continue probability √c; check the empirical mean
	// number of steps against √c/(1−√c).
	g := graph.PaperExample()
	c := 0.25 // √c = 0.5, mean steps = 1
	r := newTestRand(8)
	const trials = 20000
	total := 0
	for i := 0; i < trials; i++ {
		w := SampleWalk(g, 0, math.Sqrt(c), 1000, r, nil)
		total += len(w) - 1
	}
	mean := float64(total) / trials
	if math.Abs(mean-1.0) > 0.05 {
		t.Errorf("mean walk steps = %.3f, want ~1.0 for √c=0.5", mean)
	}
}

func benchGraph(b *testing.B, n, m int) *graph.Graph {
	b.Helper()
	edges, err := gen.ChungLu(n, m, 2.0, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.BuildStatic(n, true, edges)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkRevReach(b *testing.B) {
	g := benchGraph(b, 5000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RevReach(g, graph.NodeID(i%5000), 0.6, DeriveLmax(0.6), TransitionExact)
	}
}

func BenchmarkSampleWalk(b *testing.B) {
	g := benchGraph(b, 5000, 50000)
	r := newTestRand(1)
	var buf []graph.NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = SampleWalk(g, graph.NodeID(i%5000), math.Sqrt(0.6), 35, r, buf)
	}
}

func BenchmarkSingleSource(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	p := Params{Iterations: 200, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SingleSource(g, graph.NodeID(i%2000), nil, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopK runs cold top-10 queries on the serve-cold benchmark
// graph (the web-1m profile at scale 0.03, ε = 0.25) from its 16
// highest in-degree nodes, at the n_r where the coarse pass is the
// whole budget (20) and where a refine pass follows (400).
func BenchmarkTopK(b *testing.B) {
	prof, err := gen.ProfileByName("web-1m")
	if err != nil {
		b.Fatal(err)
	}
	g, err := prof.Scaled(0.03).Static(1)
	if err != nil {
		b.Fatal(err)
	}
	sources := make([]graph.NodeID, g.NumNodes())
	for v := range sources {
		sources[v] = graph.NodeID(v)
	}
	slices.SortFunc(sources, func(x, y graph.NodeID) int { return g.InDegree(y) - g.InDegree(x) })
	sources = sources[:16]
	for _, nr := range []int{20, 400} {
		b.Run(fmt.Sprintf("nr=%d", nr), func(b *testing.B) {
			p := Params{C: 0.6, Eps: 0.25, Iterations: nr, Workers: 2, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TopK(g, sources[i%len(sources)], 10, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleSourceReuse contrasts steady-state allocations with the
// query-scratch pool on (the default) and off: run with -benchmem to see
// allocs/op drop in the pooled case.
func BenchmarkSingleSourceReuse(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	for _, bc := range []struct {
		name   string
		params Params
	}{
		{"pooled", Params{Iterations: 200, Seed: 1}},
		{"nopool", Params{Iterations: 200, Seed: 1, DisablePooling: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SingleSource(g, graph.NodeID(i%2000), nil, bc.params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSingleSourceParallel(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	p := Params{Iterations: 200, Seed: 1, Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SingleSource(g, graph.NodeID(i%2000), nil, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTop ranks the top 10 of a 57k-entry map (the size of a
// PRSim hub result) with the bounded heap and with the full sort it
// replaced.
func BenchmarkTop(b *testing.B) {
	s := tiedScores(rand.New(rand.NewPCG(1, 2)), 57000)
	for _, bc := range []struct {
		name string
		rank func(Scores, graph.NodeID, int) []TopKResult
	}{{"heap", Top}, {"fullsort", fullSortTop}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.rank(s, 0, 10)
			}
		})
	}
}

// countOmegaEdgesMap is the pre-bitset form of countOmegaEdges (hash
// probe per in-edge); it survives only as the micro-benchmark baseline.
func countOmegaEdgesMap(g *graph.Graph, omega map[graph.NodeID]float64) int {
	count := 0
	for v := range omega {
		for _, x := range g.In(v) {
			if _, ok := omega[x]; ok {
				count++
			}
		}
	}
	if !g.Directed() {
		count /= 2
	}
	return count
}

// BenchmarkCountOmegaEdges measures the per-snapshot |E(Ω)| count both
// ways: the pooled-bitset membership test CrashSim-T now uses and the
// old map probe it replaced.
func BenchmarkCountOmegaEdges(b *testing.B) {
	const n, m = 5000, 25000
	edges, err := gen.ErdosRenyi(n, m, true, 71)
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.BuildStatic(n, true, edges)
	if err != nil {
		b.Fatal(err)
	}
	// Ω is half the node set — a mid-history candidate set.
	cands := make([]graph.NodeID, 0, n/2)
	omega := make(map[graph.NodeID]float64, n/2)
	for v := 0; v < n; v += 2 {
		cands = append(cands, graph.NodeID(v))
		omega[graph.NodeID(v)] = 1
	}
	b.Run("bitset", func(b *testing.B) {
		member := newNodeBitset(nil, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(member)
			if countOmegaEdges(g, cands, member) == 0 {
				b.Fatal("no edges counted")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if countOmegaEdgesMap(g, omega) == 0 {
				b.Fatal("no edges counted")
			}
		}
	})
}
