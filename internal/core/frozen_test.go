package core

import (
	"context"
	"math"
	"runtime"
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

// TestFrozenProbMatchesMap: the compiled tree must return the exact
// float64 of the build-time tree for every (step, node) pair — in-support,
// out-of-support, and out-of-range on both axes — on randomized graphs
// of both orientations and with lmax pushed past one bitmask word.
func TestFrozenProbMatchesMap(t *testing.T) {
	cases := []struct {
		n, m     int
		directed bool
		lmax     int
	}{
		{30, 90, true, 8},
		{50, 120, false, 35},
		{40, 200, true, 70}, // > 64 levels: multi-word bitmask path
		{25, 25, true, 3},   // sparse: most nodes outside the support
	}
	for ci, tc := range cases {
		g := randomTestGraph(t, tc.n, tc.m, tc.directed, uint64(100+ci))
		for src := 0; src < tc.n; src += 7 {
			tree := RevReach(g, graph.NodeID(src), 0.6, tc.lmax, TransitionExact)
			ft := tree.Freeze(tc.n)
			for step := -2; step <= tc.lmax+2; step++ {
				for v := graph.NodeID(-1); int(v) <= tc.n; v++ {
					want := tree.Prob(step, v)
					if v < 0 || int(v) >= tc.n {
						want = 0 // map Prob tolerates any id; frozen must too
					}
					if got := ft.Prob(step, v); got != want {
						t.Fatalf("case %d src %d: Prob(%d, %d) = %v, want %v",
							ci, src, step, v, got, want)
					}
				}
			}
			if got, want := ft.Support(), tree.Support(); got != want {
				t.Errorf("case %d src %d: frozen support %d, map support %d", ci, src, got, want)
			}
		}
	}
}

// TestFrozenCompileReuse: recompiling a pooled FrozenTree for a
// different source and a smaller graph must leave no stale state.
func TestFrozenCompileReuse(t *testing.T) {
	g1 := randomTestGraph(t, 60, 240, true, 7)
	g2 := randomTestGraph(t, 20, 60, true, 8)
	ft := new(FrozenTree)
	t1 := RevReach(g1, 3, 0.6, 12, TransitionExact)
	ft.compile(t1, 60)
	t2 := RevReach(g2, 5, 0.6, 12, TransitionExact)
	ft.compile(t2, 20)
	for step := 0; step <= 12; step++ {
		for v := graph.NodeID(0); v < 20; v++ {
			if got, want := ft.Prob(step, v), t2.Prob(step, v); got != want {
				t.Fatalf("after reuse: Prob(%d, %d) = %v, want %v", step, v, got, want)
			}
		}
	}
}

// TestFrozenKernelScoresByteIdentical: for a fixed seed, single-source
// scores must be byte-identical between the reference kernel
// (legacySingleSource) and the compiled kernel, across worker counts,
// for every meeting rule.
func TestFrozenKernelScoresByteIdentical(t *testing.T) {
	g := randomTestGraph(t, 80, 400, true, 31)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, rule := range []MeetingRule{MeetingFirstMeet, MeetingAny, MeetingFirstCrash} {
		base := Params{Iterations: 300, Seed: 17, Meeting: rule}
		want, err := legacySingleSource(g, 2, nil, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			frozen := base
			frozen.Workers = w
			got, err := SingleSource(g, 2, nil, frozen)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("rule %v workers %d: %d scores, want %d", rule, w, len(got), len(want))
			}
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("rule %v workers %d: score at node %d differs: %v (frozen) vs %v (legacy)",
						rule, w, v, got[v], want[v])
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
// bit-for-bit: the with-error path runs compiled and reads its
// variance out of the fused kernels, which must not perturb the mean.
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
// graph, the source tree in both forms, and a stream of start nodes.
func kernelBenchSetup(b *testing.B) (*graph.Graph, *ReachTree, *FrozenTree, int) {
	b.Helper()
	g := benchGraph(b, 5000, 50000)
	lmax := DeriveLmax(0.6)
	tree := RevReach(g, 1, 0.6, lmax, TransitionExact)
	ft := tree.Freeze(g.NumNodes())
	ft.buildStep1(g)
	return g, tree, ft, lmax
}

func benchmarkWalkKernel(b *testing.B, rule MeetingRule) {
	g, _, ft, lmax := kernelBenchSetup(b)
	sqrtC := math.Sqrt(0.6)
	r := rng.FastSplit(1, 42)
	b.ResetTimer()
	// One kernel call runs the whole budget, mirroring the estimator's
	// per-candidate shape; ns/op is the cost of one walk.
	sum, _, _, err := runKernel(context.Background(), rule, g, ft, 4321, sqrtC, lmax, b.N, &r)
	if err != nil {
		b.Fatal(err)
	}
	_ = sum
}

func BenchmarkWalkContributionAny(b *testing.B)        { benchmarkWalkKernel(b, MeetingAny) }
func BenchmarkWalkContributionFirstCrash(b *testing.B) { benchmarkWalkKernel(b, MeetingFirstCrash) }
func BenchmarkWalkContributionFirstMeet(b *testing.B)  { benchmarkWalkKernel(b, MeetingFirstMeet) }

// BenchmarkWalkContributionLegacy is the map-kernel baseline for the
// three fused kernels above: sampleWalk + walkContribution under the
// default first-meet rule.
func BenchmarkWalkContributionLegacy(b *testing.B) {
	g, tree, _, lmax := kernelBenchSetup(b)
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

// BenchmarkFrozenProb vs BenchmarkReachTreeProb: one crash check, flat
// vs map. The probed nodes cycle through the whole graph so both hit
// and miss paths are exercised.
func BenchmarkFrozenProb(b *testing.B) {
	_, _, ft, lmax := kernelBenchSetup(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ft.Prob(i%(lmax+1), graph.NodeID(i%5000))
	}
	_ = sink
}

func BenchmarkReachTreeProb(b *testing.B) {
	_, tree, _, lmax := kernelBenchSetup(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tree.Prob(i%(lmax+1), graph.NodeID(i%5000))
	}
	_ = sink
}

// BenchmarkFreeze prices the compile step itself (paid once per query).
func BenchmarkFreeze(b *testing.B) {
	g := benchGraph(b, 5000, 50000)
	tree := RevReach(g, 1, 0.6, DeriveLmax(0.6), TransitionExact)
	ft := new(FrozenTree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.compile(tree, g.NumNodes())
	}
}

// BenchmarkForwardReachBitset vs BenchmarkForwardReachMap: the
// zero-score prefilter BFS in both forms.
func BenchmarkForwardReachBitset(b *testing.B) {
	g, tree, _, lmax := kernelBenchSetup(b)
	sources := tree.Nodes()
	var reach nodeBitset
	var frontier, next []graph.NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reach = newNodeBitset(reach, g.NumNodes())
		frontier, next = forwardReachBits(g, sources, lmax, reach, frontier, next)
	}
}

func BenchmarkForwardReachMap(b *testing.B) {
	g, tree, _, lmax := kernelBenchSetup(b)
	sources := tree.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forwardReach(g, sources, lmax)
	}
}

// BenchmarkSingleSourceKernels is the end-to-end before/after: one full
// single-source query per iteration, reference kernel vs compiled
// kernel, same seed and budget.
func BenchmarkSingleSourceKernels(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	p := Params{Iterations: 200, Seed: 1}
	for _, bc := range []struct {
		name  string
		query func(*graph.Graph, graph.NodeID, []graph.NodeID, Params) (Scores, error)
	}{
		{"frozen", SingleSource},
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
// a compiled tree allocates nothing. The meeting-rule dispatch is a
// direct switch, so the candidate's random stream stays on the stack;
// a func-value dispatch would move it to the heap once per candidate.
func TestCandidateEstimateAllocationFree(t *testing.T) {
	g := randomTestGraph(t, 200, 1200, true, 3)
	for _, rule := range []MeetingRule{MeetingAny, MeetingFirstCrash, MeetingFirstMeet} {
		p := Params{Iterations: 50, Seed: 5, Meeting: rule}.withDefaults()
		tree := RevReach(g, 1, p.C, p.Lmax, p.Transition)
		ft := tree.Freeze(g.NumNodes())
		ft.buildStep1(g)
		sqrtC := math.Sqrt(p.C)
		ctx := context.Background()
		if g.InDegree(7) == 0 {
			t.Fatal("candidate has no in-edges; its walks never move")
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := estimateCandidateFrozen(ctx, g, 1, 7, p, ft, p.Iterations, sqrtC); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("rule %v: %v allocations per candidate estimate, want 0", rule, allocs)
		}
	}
}

// TestFrozenCarryKeysOnEpoch: the carry's reuse follows the tree epoch,
// not the tree pointer. An arena recycled to hold a different tree
// under a new epoch must be recompiled, and the same epoch must be
// served from the carry.
func TestFrozenCarryKeysOnEpoch(t *testing.T) {
	g := randomTestGraph(t, 120, 500, true, 9)
	p := Params{}.withDefaults()
	arena := new(ReachTree)
	revReachInto(arena, g, 1, p.C, p.Lmax, p.Transition)
	fc := &frozenCarry{}
	if _, reused := fc.prepare(g, arena, 1); reused {
		t.Fatal("first prepare reported reuse")
	}
	if _, reused := fc.prepare(g, arena, 1); !reused {
		t.Fatal("same epoch was recompiled")
	}
	// Recycle the arena for another source's tree under a new epoch.
	revReachInto(arena, g, 2, p.C, p.Lmax, p.Transition)
	ft, reused := fc.prepare(g, arena, 2)
	if reused {
		t.Fatal("recycled arena under a new epoch was served from the carry")
	}
	for step := 0; step < arena.NumLevels(); step++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if got, want := ft.Prob(step, v), arena.Prob(step, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Prob(%d,%d) = %v, want %v", step, v, got, want)
			}
		}
	}
}
