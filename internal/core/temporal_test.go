package core

import (
	"math"
	"reflect"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/temporal"
)

// thresholdQuery is a minimal TemporalQuery for core-level tests (the
// full query types live in internal/tempq).
type thresholdQuery struct{ theta float64 }

func (q thresholdQuery) Name() string                    { return "test-threshold" }
func (q thresholdQuery) Keep(_ int, _, cur float64) bool { return cur >= q.theta }

// trendQuery keeps non-decreasing score sequences within slack.
type trendQuery struct{ slack float64 }

func (q trendQuery) Name() string { return "test-trend" }
func (q trendQuery) Keep(_ int, prev, cur float64) bool {
	return math.IsNaN(prev) || cur >= prev-q.slack
}

func churnGraph(t *testing.T, n, m, snapshots int, rate float64, seed uint64) *temporal.Graph {
	t.Helper()
	base, err := gen.ErdosRenyi(n, m, true, seed)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := gen.Churn(n, true, base, gen.ChurnOptions{
		Snapshots: snapshots, AddRate: rate, DelRate: rate, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestCrashSimTValidation(t *testing.T) {
	tg := churnGraph(t, 20, 40, 3, 0.05, 1)
	p := Params{Iterations: 20, Seed: 1}
	if _, err := CrashSimT(tg, 99, thresholdQuery{0.1}, p, TemporalOptions{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := CrashSimT(tg, 0, nil, p, TemporalOptions{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := CrashSimT(tg, 0, thresholdQuery{0.1}, Params{C: 3}, TemporalOptions{}); err == nil {
		t.Error("bad params accepted")
	}
}

func TestCrashSimTThresholdBasic(t *testing.T) {
	tg := churnGraph(t, 30, 90, 5, 0.02, 2)
	p := Params{Iterations: 150, Seed: 3}
	res, err := CrashSimT(tg, 0, thresholdQuery{0.0}, p, TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 0 keeps everything, including the source.
	if len(res.Omega) != 30 {
		t.Errorf("threshold 0 kept %d nodes, want all 30", len(res.Omega))
	}
	if res.Stats.Snapshots != 5 {
		t.Errorf("processed %d snapshots, want 5", res.Stats.Snapshots)
	}
	// Impossible threshold keeps only the source (score 1).
	res, err = CrashSimT(tg, 0, thresholdQuery{0.99}, p, TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Omega) != 1 || res.Omega[0] != 0 {
		t.Errorf("threshold 0.99 kept %v, want [0]", res.Omega)
	}
	if res.Final[0] != 1 {
		t.Errorf("final score of source = %g, want 1", res.Final[0])
	}
}

// TestCrashSimTPruningEquivalence is the central correctness property of
// Section IV: with per-candidate random streams, delta pruning reuses a
// score exactly when recomputation would reproduce it, so the pruned and
// unpruned runs return identical result sets and scores.
func TestCrashSimTPruningEquivalence(t *testing.T) {
	tg := churnGraph(t, 50, 120, 8, 0.01, 5)
	p := Params{Iterations: 80, Seed: 9}
	q := thresholdQuery{0.02}

	pruned, err := CrashSimT(tg, 0, q, p, TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := CrashSimT(tg, 0, q, p, TemporalOptions{
		DisableDeltaPruning: true, DisableDiffPruning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pruned.Omega, unpruned.Omega) {
		t.Errorf("result sets differ:\npruned   %v\nunpruned %v", pruned.Omega, unpruned.Omega)
	}
	for v, s := range unpruned.Final {
		if pruned.Final[v] != s {
			t.Errorf("final score differs at %d: pruned %g, unpruned %g", v, pruned.Final[v], s)
		}
	}
	if pruned.Stats.ReusedDelta+pruned.Stats.ReusedDiff == 0 {
		t.Error("pruning never engaged on a low-churn workload; test is vacuous")
	}
	if pruned.Stats.Evaluated >= unpruned.Stats.Evaluated {
		t.Errorf("pruned run evaluated %d >= unpruned %d", pruned.Stats.Evaluated, unpruned.Stats.Evaluated)
	}
}

// TestCrashSimTDeltaOnlyEquivalence isolates the delta rule.
func TestCrashSimTDeltaOnlyEquivalence(t *testing.T) {
	tg := churnGraph(t, 40, 100, 6, 0.01, 7)
	p := Params{Iterations: 60, Seed: 11}
	q := trendQuery{slack: 0.05}
	deltaOnly, err := CrashSimT(tg, 1, q, p, TemporalOptions{DisableDiffPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	none, err := CrashSimT(tg, 1, q, p, TemporalOptions{DisableDeltaPruning: true, DisableDiffPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deltaOnly.Omega, none.Omega) {
		t.Errorf("delta-only result differs from unpruned:\n%v\n%v", deltaOnly.Omega, none.Omega)
	}
}

// TestCrashSimTOmegaShrinks: the candidate set can only shrink over
// time, the monotonicity CrashSim-T's partial computation exploits.
func TestCrashSimTOmegaShrinks(t *testing.T) {
	tg := churnGraph(t, 40, 120, 6, 0.05, 13)
	p := Params{Iterations: 100, Seed: 15}
	resAll, err := CrashSimT(tg, 2, thresholdQuery{0.0}, p, TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resTight, err := CrashSimT(tg, 2, thresholdQuery{0.05}, p, TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resTight.Omega) > len(resAll.Omega) {
		t.Errorf("tighter threshold yields bigger set: %d > %d", len(resTight.Omega), len(resAll.Omega))
	}
	for _, v := range resTight.Omega {
		found := false
		for _, w := range resAll.Omega {
			if v == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("node %d in tight result but not in loose result", v)
		}
	}
}

// TestCrashSimTStaticHistory: with zero churn every transition has an
// unchanged source tree and empty delta, so after the first snapshot
// everything is reused and nothing is recomputed.
func TestCrashSimTStaticHistory(t *testing.T) {
	base, err := gen.ErdosRenyi(25, 60, true, 17)
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]temporal.Delta, 4) // five identical snapshots
	tg, err := temporal.New(25, true, base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Iterations: 50, Seed: 19}
	res, err := CrashSimT(tg, 0, thresholdQuery{0.0}, p, TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TreeStableSteps != 4 {
		t.Errorf("TreeStableSteps = %d, want 4", res.Stats.TreeStableSteps)
	}
	if res.Stats.Evaluated != 25 {
		t.Errorf("Evaluated = %d, want 25 (only the first snapshot)", res.Stats.Evaluated)
	}
	if res.Stats.ReusedDelta != 4*25 {
		t.Errorf("ReusedDelta = %d, want 100", res.Stats.ReusedDelta)
	}
}

func TestCrashSimTTrendFiltering(t *testing.T) {
	// Construct a graph whose similarity to the source strictly drops
	// for one node: start with v sharing an in-neighbor with u, then
	// remove that shared structure.
	//   snapshot 0: w -> u, w -> v  (u and v similar)
	//   snapshot 1: w -> u, x -> v  (similarity destroyed)
	tg, err := temporal.New(4, true,
		[]graph.Edge{{X: 2, Y: 0}, {X: 2, Y: 1}},
		[]temporal.Delta{{
			Del: []graph.Edge{{X: 2, Y: 1}},
			Add: []graph.Edge{{X: 3, Y: 1}},
		}})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Iterations: 400, Seed: 21}
	// Increasing trend with tiny slack: node 1's similarity collapses
	// from ~c to 0, so it must be filtered out.
	res, err := CrashSimT(tg, 0, trendQuery{slack: 0.01}, p, TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Omega {
		if v == 1 {
			t.Errorf("node 1 survived an increasing-trend query despite dropping similarity; omega=%v", res.Omega)
		}
	}
	// The source always survives (score pinned at 1).
	if len(res.Omega) == 0 || res.Omega[0] != 0 {
		t.Errorf("source missing from omega: %v", res.Omega)
	}
}

// maskCacheTraffic zeroes the two stats fields that legitimately vary
// with scheduling (byte-accounted eviction depends on insertion order),
// leaving everything the determinism contract covers.
func maskCacheTraffic(s TemporalStats) TemporalStats {
	s.CandTreeHits, s.CandTreeMisses = 0, 0
	return s
}

// TestCrashSimTWorkersDeterminism: for a fixed seed, the parallel
// pruning pipeline must return bit-identical results for any worker
// count — candidates own their random streams, decisions land in
// per-candidate slots, and the merges run serially in candidate order.
// Run under -race this also exercises the fan-outs for data races.
func TestCrashSimTWorkersDeterminism(t *testing.T) {
	edges, err := gen.ErdosRenyi(90, 270, true, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Bursty history: quiet transitions make the source tree stable, so
	// both pruning fan-outs (delta membership and per-candidate diff
	// comparison) get exercised across worker counts.
	tg, err := gen.Churn(90, true, edges, gen.ChurnOptions{
		Snapshots: 8, AddRate: 0.01, DelRate: 0.01, ActiveFraction: 0.5, Seed: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Iterations: 120, Seed: 29}
	q := thresholdQuery{0.005}
	base, err := CrashSimT(tg, 0, q, p, TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.ReusedDelta+base.Stats.ReusedDiff == 0 {
		t.Fatal("pruning never engaged; the parallel loops were not exercised")
	}
	for _, w := range []int{2, 4} {
		pw := p
		pw.Workers = w
		got, err := CrashSimT(tg, 0, q, pw, TemporalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Omega, base.Omega) {
			t.Errorf("workers=%d: omega differs:\n%v\n%v", w, got.Omega, base.Omega)
		}
		for v, s := range base.Final {
			if math.Float64bits(got.Final[v]) != math.Float64bits(s) {
				t.Errorf("workers=%d: score at %d = %v, want %v", w, v, got.Final[v], s)
			}
		}
		if ga, ba := maskCacheTraffic(got.Stats), maskCacheTraffic(base.Stats); ga != ba {
			t.Errorf("workers=%d: stats differ:\n%+v\n%+v", w, ga, ba)
		}
	}
}

// TestCrashSimTIncrementalEquivalence: every incremental mechanism of
// the pipeline (tree patching, the candidate-tree cache, frozen-form
// reuse) is a pure optimization — rebuilding every snapshot with the
// cache off must reproduce the same result bit for bit, while the
// default run actually engages them.
func TestCrashSimTIncrementalEquivalence(t *testing.T) {
	tg := churnGraph(t, 60, 150, 8, 0.01, 37)
	p := Params{Iterations: 100, Seed: 41}
	q := thresholdQuery{0.01}
	inc, err := CrashSimT(tg, 0, q, p, TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CrashSimT(tg, 0, q, p, TemporalOptions{noCandidateCache: true, rebuildEachSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc.Omega, plain.Omega) {
		t.Errorf("omega differs:\nincremental %v\nplain       %v", inc.Omega, plain.Omega)
	}
	for v, s := range plain.Final {
		if math.Float64bits(inc.Final[v]) != math.Float64bits(s) {
			t.Errorf("score at %d = %v, want %v", v, inc.Final[v], s)
		}
	}
	if inc.Stats.TreePatched == 0 {
		t.Error("default run never patched a tree on a low-churn history")
	}
	if plain.Stats.TreePatched != 0 || plain.Stats.FrozenReused != 0 || plain.Stats.CandTreeHits != 0 {
		t.Errorf("ablated run used incremental machinery: %+v", plain.Stats)
	}
}

// TestTemporalStatsAccounting: every candidate-snapshot is either
// evaluated or reused by exactly one pruning rule, so
// Evaluated + ReusedDelta + ReusedDiff must equal the initial full
// sweep plus the candidate count entering each later snapshot —
// whatever mix of empty, tiny and gate-exceeding deltas the history
// throws at the pipeline.
func TestTemporalStatsAccounting(t *testing.T) {
	const n = 50
	static := func(t *testing.T) *temporal.Graph {
		base, err := gen.ErdosRenyi(n, 130, true, 47)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := temporal.New(n, true, base, make([]temporal.Delta, 5))
		if err != nil {
			t.Fatal(err)
		}
		return tg
	}
	churn := func(rate float64) func(*testing.T) *temporal.Graph {
		return func(t *testing.T) *temporal.Graph { return churnGraph(t, n, 130, 6, rate, 47) }
	}
	cases := []struct {
		name    string
		history func(*testing.T) *temporal.Graph
		theta   float64
		opts    TemporalOptions
	}{
		{"empty-deltas", static, 0.002, TemporalOptions{}},
		{"tiny-deltas", churn(0.01), 0.002, TemporalOptions{}},
		{"gate-exceeding", churn(0.05), 0.002, TemporalOptions{patchGate: 1e-300}},
		// Difference pruning runs on this history, so with the cache
		// off it has previous-snapshot trees to recompute.
		{"tiny-no-cache", diffPruningHistory, 0, TemporalOptions{noCandidateCache: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tg := tc.history(t)
			processed := 0
			opts := tc.opts
			opts.Observer = func(t int, scores Scores) {
				if t > 0 {
					processed += len(scores)
				}
			}
			res, err := CrashSimT(tg, 0, thresholdQuery{tc.theta}, Params{Iterations: 90, Seed: 53}, opts)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if got, want := s.Evaluated+s.ReusedDelta+s.ReusedDiff, tg.NumNodes()+processed; got != want {
				t.Errorf("Evaluated(%d)+ReusedDelta(%d)+ReusedDiff(%d) = %d, want %d candidate-snapshots",
					s.Evaluated, s.ReusedDelta, s.ReusedDiff, got, want)
			}
			// Every transition obtained its source tree exactly one way:
			// carried over an empty delta, patched, or rebuilt.
			empty := 0
			for i := 0; i < tg.NumSnapshots()-1; i++ {
				if tg.Delta(i).Size() == 0 {
					empty++
				}
			}
			if got, want := empty+s.TreePatched+s.TreeRebuilt, s.Snapshots-1; got != want {
				t.Errorf("empty(%d)+TreePatched(%d)+TreeRebuilt(%d) = %d transitions, want %d",
					empty, s.TreePatched, s.TreeRebuilt, got, want)
			}
			if tc.name == "gate-exceeding" && s.TreePatched != 0 {
				t.Errorf("TreePatched = %d under a zero-budget gate", s.TreePatched)
			}
			if tc.name == "empty-deltas" && s.TreeRebuilt+s.TreePatched != 0 {
				t.Errorf("static history rebuilt %d and patched %d trees", s.TreeRebuilt, s.TreePatched)
			}
			// A negative cache budget turns the candidate-tree cache off:
			// difference pruning still runs, but every previous-snapshot
			// tree is recomputed.
			if tc.name == "tiny-no-cache" && (s.CandTreeHits != 0 || s.CandTreeMisses == 0) {
				t.Errorf("cache off: CandTreeHits = %d, CandTreeMisses = %d; want 0 hits and some misses",
					s.CandTreeHits, s.CandTreeMisses)
			}
		})
	}
}
