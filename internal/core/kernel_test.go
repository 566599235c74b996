package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

func randomTestGraph(t testing.TB, n, m int, directed bool, seed uint64) *graph.Graph {
	t.Helper()
	edges, err := gen.ErdosRenyi(n, m, directed, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(n, directed, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// levelSearch is the reference the probe index is checked against: a
// binary search over the arena's sorted level, 0 for a step or node
// the tree does not hold.
func levelSearch(t *ReachTree, step int, v graph.NodeID) float64 {
	nodes, probs := t.Level(step)
	if i, ok := slices.BinarySearch(nodes, v); ok {
		return probs[i]
	}
	return 0
}

// checkProbeIndex requires every probe of t's index, for steps and
// nodes past both ends of their ranges too, to return the exact
// float64 of levelSearch, and the OR of the index rows (the
// prefilter's support) to be the set of nodes the arena holds.
func checkProbeIndex(t *testing.T, name string, tree *ReachTree, n int) {
	t.Helper()
	if tree.words != indexWords(n) {
		t.Fatalf("%s: %d index words per level, want %d", name, tree.words, indexWords(n))
	}
	for step := -2; step <= tree.NumLevels()+1; step++ {
		for v := graph.NodeID(-65); int(v) < 64*tree.words+65; v++ {
			got, want := tree.Prob(step, v), levelSearch(tree, step, v)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Prob(%d, %d) = %v, level search %v", name, step, v, got, want)
			}
		}
	}
	support := newNodeBitset(nil, n)
	tree.orLevels(support)
	if got, want := support.appendNodes(nil), tree.Nodes(); !slices.Equal(got, want) {
		t.Fatalf("%s: OR of the index rows %v, arena nodes %v", name, got, want)
	}
}

// TestFrozenProbMatchesMap: a tree's probe must return the exact
// float64 of a map built from its levels for every (step, node) pair —
// in-support, out-of-support, and out-of-range on both axes — on
// randomized graphs of both orientations and with lmax pushed past one
// index word's worth of levels; Support must count the map's entries.
func TestFrozenProbMatchesMap(t *testing.T) {
	cases := []struct {
		n, m     int
		directed bool
		lmax     int
	}{
		{30, 90, true, 8},
		{50, 120, false, 35},
		{40, 200, true, 70}, // more levels than bits in a word
		{25, 25, true, 3},   // sparse: most nodes outside the support
	}
	type key struct {
		step int
		v    graph.NodeID
	}
	for ci, tc := range cases {
		g := randomTestGraph(t, tc.n, tc.m, tc.directed, uint64(100+ci))
		for src := 0; src < tc.n; src += 7 {
			tree := RevReach(g, graph.NodeID(src), 0.6, tc.lmax, TransitionExact)
			want := make(map[key]float64)
			for step := 0; step < tree.NumLevels(); step++ {
				nodes, probs := tree.Level(step)
				for i, v := range nodes {
					want[key{step, v}] = probs[i]
				}
			}
			for step := -2; step <= tc.lmax+2; step++ {
				for v := graph.NodeID(-1); int(v) <= tc.n; v++ {
					if got, w := tree.Prob(step, v), want[key{step, v}]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("case %d src %d: Prob(%d, %d) = %v, want %v", ci, src, step, v, got, w)
					}
				}
			}
			if got := tree.Support(); got != len(want) {
				t.Errorf("case %d src %d: support %d, map holds %d entries", ci, src, got, len(want))
			}
		}
	}
}

// TestFrozenCompileReuse: building a tree into an arena left over from
// another source on a larger graph, with a larger lmax, must leave no
// stale level, probability or index word: every probe equals a fresh
// build's, and the index passes checkProbeIndex.
func TestFrozenCompileReuse(t *testing.T) {
	big := randomTestGraph(t, 300, 1500, true, 99)
	cases := []struct {
		n, m     int
		directed bool
		lmax     int
	}{
		{20, 60, true, 12},
		{50, 120, false, 35},
		{130, 400, true, 6}, // three index words per level
	}
	for ci, tc := range cases {
		g := randomTestGraph(t, tc.n, tc.m, tc.directed, uint64(200+ci))
		for src := 0; src < tc.n; src += 7 {
			u := graph.NodeID(src)
			for _, rule := range []TransitionRule{TransitionExact, TransitionPaperLiteral} {
				name := fmt.Sprintf("case %d src %d %v dirty arena", ci, src, rule)
				dirty := RevReach(big, 3, 0.6, tc.lmax+9, rule)
				got := revReachInto(dirty, g, u, 0.6, tc.lmax, rule, 0, InEdges, true)
				fresh := RevReach(g, u, 0.6, tc.lmax, rule)
				if got.NumLevels() != fresh.NumLevels() || got.Support() != fresh.Support() {
					t.Fatalf("%s: %d levels, support %d; fresh build %d levels, support %d",
						name, got.NumLevels(), got.Support(), fresh.NumLevels(), fresh.Support())
				}
				for step := -1; step <= tc.lmax+1; step++ {
					for v := graph.NodeID(-1); int(v) <= tc.n; v++ {
						if a, b := got.Prob(step, v), fresh.Prob(step, v); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("%s: Prob(%d, %d) = %v, fresh build %v", name, step, v, a, b)
						}
					}
				}
				checkProbeIndex(t, name, got, tc.n)
			}
		}
	}
}

// TestProbeIndexMatchesLevels: the probe index of both tree builders —
// RevReach and RevReachNonBacktracking under both transition rules —
// answers every (step, node) exactly as a binary search over the level
// does, on graphs of both orientations with lmax past 64 levels.
func TestProbeIndexMatchesLevels(t *testing.T) {
	cases := []struct {
		n, m     int
		directed bool
		lmax     int
	}{
		{30, 90, true, 8},
		{50, 120, false, 35},
		{40, 200, true, 70}, // more levels than bits in a word
		{25, 25, true, 3},   // sparse: most nodes outside the support
		{130, 400, true, 6}, // three index words per level
	}
	for ci, tc := range cases {
		g := randomTestGraph(t, tc.n, tc.m, tc.directed, uint64(100+ci))
		for src := 0; src < tc.n; src += 7 {
			u := graph.NodeID(src)
			for _, rule := range []TransitionRule{TransitionExact, TransitionPaperLiteral} {
				name := fmt.Sprintf("case %d src %d %v", ci, src, rule)
				checkProbeIndex(t, name+" RevReach", RevReach(g, u, 0.6, tc.lmax, rule), tc.n)
				checkProbeIndex(t, name+" non-backtracking", RevReachNonBacktracking(g, u, 0.6, tc.lmax, rule), tc.n)
			}
		}
	}
}

// TestFrozenKernelScoresByteIdentical: for a fixed seed, single-source
// scores must be byte-identical between the reference kernel
// (legacySingleSource) and the fused kernel, across worker counts,
// for every meeting rule. The power-law graph has candidates with more
// in-edges than the kernel's 64-entry first-step staging buffer, so
// its first hop gathers straight through the in-CSR and the s1 table.
func TestFrozenKernelScoresByteIdentical(t *testing.T) {
	hubEdges, err := gen.ChungLu(300, 1500, 2.0, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	hubs, err := gen.BuildStatic(300, true, hubEdges)
	if err != nil {
		t.Fatal(err)
	}
	if d := hubs.InDegree(0); d < 100 {
		t.Fatalf("power-law graph's widest candidate has %d in-edges, want ≥ 100", d)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", randomTestGraph(t, 80, 400, true, 31)},
		{"hubs", hubs},
	} {
		g := tc.g
		workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
		for _, rule := range []MeetingRule{MeetingFirstMeet, MeetingAny, MeetingFirstCrash} {
			base := Params{Iterations: 300, Seed: 17, Meeting: rule}
			want, err := legacySingleSource(g, 2, nil, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				fused := base
				fused.Workers = w
				got, err := SingleSource(g, 2, nil, fused)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: rule %v workers %d: %d scores, want %d", tc.name, rule, w, len(got), len(want))
				}
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("%s: rule %v workers %d: score at node %d differs: %v (fused) vs %v (legacy)",
							tc.name, rule, w, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// forwardReach is the map-based multi-source BFS the bitset form
// replaced, kept as the reference forwardReachBits is tested and
// benchmarked against: every node reachable from any source by
// following out-edges within depth hops, sources included.
func forwardReach(g *graph.Graph, sources []graph.NodeID, depth int) map[graph.NodeID]struct{} {
	reach := make(map[graph.NodeID]struct{}, len(sources)*2)
	frontier := make([]graph.NodeID, 0, len(sources))
	for _, s := range sources {
		if _, ok := reach[s]; !ok {
			reach[s] = struct{}{}
			frontier = append(frontier, s)
		}
	}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, v := range frontier {
			for _, w := range g.Out(v) {
				if _, ok := reach[w]; !ok {
					reach[w] = struct{}{}
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return reach
}

// TestForwardReachBitsMatchesMap: the bitset BFS must mark exactly the
// set the map BFS returns, for assorted depths and source sets.
func TestForwardReachBitsMatchesMap(t *testing.T) {
	g := randomTestGraph(t, 64, 200, true, 5)
	n := g.NumNodes()
	sourceSets := [][]graph.NodeID{
		nil,
		{0},
		{3, 3, 17},
		{1, 5, 9, 13, 63},
	}
	for _, sources := range sourceSets {
		for depth := 0; depth <= 6; depth++ {
			want := forwardReach(g, sources, depth)
			reach := newNodeBitset(nil, n)
			forwardReachBits(g, sources, depth, reach, nil, nil)
			for v := graph.NodeID(0); int(v) < n; v++ {
				_, inMap := want[v]
				if got := reach.Has(v); got != inMap {
					t.Fatalf("sources %v depth %d: node %d bitset=%v map=%v",
						sources, depth, v, got, inMap)
				}
			}
		}
	}
}

// TestFrozenKernelDisabledEstimateWithError: SingleSourceWithError's
// Score fields must match the reference kernel (legacySingleSource)
// bit-for-bit: the with-error path reads its variance out of the fused
// kernels, which must not perturb the mean.
func TestFrozenKernelDisabledEstimateWithError(t *testing.T) {
	g := randomTestGraph(t, 40, 160, true, 13)
	p := Params{Iterations: 150, Seed: 23}
	scores, err := legacySingleSource(g, 1, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	withErr, err := SingleSourceWithError(g, 1, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range scores {
		if math.Float64bits(withErr[v].Score) != math.Float64bits(s) {
			t.Fatalf("node %d: with-error score %v, single-source %v", v, withErr[v].Score, s)
		}
	}
}

// ---- kernel micro-benchmarks ----

// kernelBenchSetup builds the shared benchmark fixture: a power-law
// graph, the source tree and its prepared first-step table.
func kernelBenchSetup(b *testing.B) (*graph.Graph, *srcPrep, int) {
	b.Helper()
	g := benchGraph(b, 5000, 50000)
	lmax := DeriveLmax(0.6)
	tree := RevReach(g, 1, 0.6, lmax, TransitionExact)
	a := acquireArena(1, 1, g.NumNodes())
	b.Cleanup(a.release)
	a.addSource(g, 1, tree, a.window(0, g.NumNodes()), nil)
	return g, &a.preps[0], lmax
}

func benchmarkWalkKernel(b *testing.B, rule MeetingRule) {
	g, pr, lmax := kernelBenchSetup(b)
	sqrtC := math.Sqrt(0.6)
	r := rng.FastSplit(1, 42)
	b.ResetTimer()
	// One kernel call runs the whole budget, mirroring the estimator's
	// per-candidate shape; ns/op is the cost of one walk.
	sum, _, _, err := runKernel(context.Background(), rule, g, pr.tree, pr.s1, 4321, sqrtC, lmax, b.N, &r)
	if err != nil {
		b.Fatal(err)
	}
	_ = sum
}

func BenchmarkWalkContributionAny(b *testing.B)        { benchmarkWalkKernel(b, MeetingAny) }
func BenchmarkWalkContributionFirstCrash(b *testing.B) { benchmarkWalkKernel(b, MeetingFirstCrash) }
func BenchmarkWalkContributionFirstMeet(b *testing.B)  { benchmarkWalkKernel(b, MeetingFirstMeet) }

// BenchmarkWalkContributionLegacy is the map-kernel baseline for the
// fused kernel's three rules above: sampleWalk + walkContribution under
// the default first-meet rule.
func BenchmarkWalkContributionLegacy(b *testing.B) {
	g, pr, lmax := kernelBenchSetup(b)
	tree := pr.tree
	sqrtC := math.Sqrt(0.6)
	r := rng.Split(1, 42)
	var walk []graph.NodeID
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		walk = sampleWalk(g, 4321, sqrtC, lmax, r, walk)
		sink += walkContribution(g, walk, tree, MeetingFirstMeet, sqrtC)
	}
	_ = sink
}

// BenchmarkProbe vs BenchmarkLevelSearch: one crash check through the
// probe index vs a binary search over the level. The probed nodes cycle
// through the whole graph so both hit and miss paths are exercised.
func BenchmarkProbe(b *testing.B) {
	_, pr, lmax := kernelBenchSetup(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += pr.tree.Prob(i%(lmax+1), graph.NodeID(i%5000))
	}
	_ = sink
}

func BenchmarkLevelSearch(b *testing.B) {
	_, pr, lmax := kernelBenchSetup(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += levelSearch(pr.tree, i%(lmax+1), graph.NodeID(i%5000))
	}
	_ = sink
}

// BenchmarkForwardReachBitset vs BenchmarkForwardReachMap: the
// zero-score prefilter BFS in both forms.
func BenchmarkForwardReachBitset(b *testing.B) {
	g, pr, lmax := kernelBenchSetup(b)
	sources := pr.tree.Nodes()
	var reach nodeBitset
	var frontier, next []graph.NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reach = newNodeBitset(reach, g.NumNodes())
		frontier, next = forwardReachBits(g, sources, lmax, reach, frontier, next)
	}
}

func BenchmarkForwardReachMap(b *testing.B) {
	g, pr, lmax := kernelBenchSetup(b)
	sources := pr.tree.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forwardReach(g, sources, lmax)
	}
}

// BenchmarkSingleSourceKernels is the end-to-end before/after: one full
// single-source query per iteration, reference kernel vs fused probe
// kernel, same seed and budget.
func BenchmarkSingleSourceKernels(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	p := Params{Iterations: 200, Seed: 1}
	for _, bc := range []struct {
		name  string
		query func(*graph.Graph, graph.NodeID, []graph.NodeID, Params) (Scores, error)
	}{
		{"probe", SingleSource},
		{"legacy", legacySingleSource},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.query(g, graph.NodeID(i%2000), nil, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCandidateEstimateAllocationFree: one candidate's estimate against
// a prepared source tree allocates nothing under any meeting rule. The
// walk kernel is called directly, so the candidate's random stream
// stays on the stack; calling it through a func value would move the
// stream to the heap once per candidate.
func TestCandidateEstimateAllocationFree(t *testing.T) {
	g := randomTestGraph(t, 200, 1200, true, 3)
	for _, rule := range []MeetingRule{MeetingAny, MeetingFirstCrash, MeetingFirstMeet} {
		p := Params{Iterations: 50, Seed: 5, Meeting: rule}.withDefaults()
		tree := RevReach(g, 1, p.C, p.Lmax, p.Transition)
		a := acquireArena(1, 1, g.NumNodes())
		defer a.release()
		a.addSource(g, 1, tree, a.window(0, g.NumNodes()), nil)
		sqrtC := math.Sqrt(p.C)
		ctx := context.Background()
		if g.InDegree(7) == 0 {
			t.Fatal("candidate has no in-edges; its walks never move")
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, _, err := sampleCandidate(ctx, g, &a.preps[0], 7, p, p.Iterations, sqrtC); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("rule %v: %v allocations per candidate estimate, want 0", rule, allocs)
		}
	}
}
