package core

import (
	"math"
	"slices"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/temporal"
)

// asHistory is the repo benchmark's temporal input shape: the as-733
// profile over 15 snapshots, with the profile's churn on 6 evenly
// spaced transitions and the other 8 quiet. scale shrinks the profile
// (1 is the full size the benchmark uses).
func asHistory(tb testing.TB, scale float64) *temporal.Graph {
	tb.Helper()
	h := asHistoryInput(tb, scale)
	tg, err := temporal.New(h.n, h.directed, h.initial, h.deltas)
	if err != nil {
		tb.Fatal(err)
	}
	return tg
}

// historyInput is what temporal.New takes.
type historyInput struct {
	n        int
	directed bool
	initial  []graph.Edge
	deltas   []temporal.Delta
}

// asHistoryInput returns asHistory's arguments to temporal.New.
func asHistoryInput(tb testing.TB, scale float64) historyInput {
	tb.Helper()
	prof, err := gen.ProfileByName("as-733")
	if err != nil {
		tb.Fatal(err)
	}
	prof = prof.Scaled(scale)
	const seed = 1
	edges, err := prof.StaticEdges(seed)
	if err != nil {
		tb.Fatal(err)
	}
	const steps, active = 14, 6
	churn, err := gen.Churn(prof.Nodes, prof.Directed, edges, gen.ChurnOptions{
		Snapshots: active + 1, AddRate: prof.ChurnRate, DelRate: prof.ChurnRate, ActiveFraction: 1, Seed: seed + 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	deltas := make([]temporal.Delta, steps)
	for i := range active {
		deltas[(2*i+1)*steps/(2*active)] = churn.Delta(i)
	}
	return historyInput{prof.Nodes, prof.Directed, edges, deltas}
}

// BenchmarkCrashSimTCursor prices the snapshot side of a CrashSim-T
// query on the as-733 history: "new" is temporal.New, which validates
// the history and builds snapshot 0; "scan" is a cursor walking every
// snapshot and freezing each, which builds one CSR per active
// transition and reuses it across the quiet ones.
func BenchmarkCrashSimTCursor(b *testing.B) {
	h := asHistoryInput(b, 1)
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := temporal.New(h.n, h.directed, h.initial, h.deltas); err != nil {
				b.Fatal(err)
			}
		}
	})
	tg, err := temporal.New(h.n, h.directed, h.initial, h.deltas)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur, err := tg.Cursor()
			if err != nil {
				b.Fatal(err)
			}
			cur.Freeze()
			for cur.Next() {
				cur.Freeze()
			}
			if err := cur.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCrashSimT runs one trend and one threshold CrashSim-T query
// per op on the as-733 history, from its two highest-degree nodes, at
// the temporal workload's n_r (193) on two workers. B/op and allocs/op
// measure the per-snapshot bookkeeping: snapshot freezes, source-tree
// rebuilds with their probe index and diff, and the per-candidate
// estimates.
func BenchmarkCrashSimT(b *testing.B) {
	tg := asHistory(b, 1)
	g, err := tg.Snapshot(0)
	if err != nil {
		b.Fatal(err)
	}
	sources := graph.GiantComponent(g)
	deg := func(v graph.NodeID) int { return g.InDegree(v) + g.OutDegree(v) }
	slices.SortStableFunc(sources, func(a, b graph.NodeID) int { return deg(b) - deg(a) })
	queries := []TemporalQuery{trendQuery{}, thresholdQuery{theta: 0.1}}
	p := Params{C: 0.6, Eps: 0.05, Iterations: 193, Workers: 2, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, q := range queries {
			res, err := CrashSimT(tg, sources[j], q, p, TemporalOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if math.IsNaN(res.Final[sources[j]]) {
				b.Fatal("NaN source score")
			}
		}
	}
}

// BenchmarkCrashSimTDiffPruning runs the shape of the pruning
// ablation's "diff only" row (repro ablation, default config): one
// increasing-trend query per op on the as-733 profile at scale 0.03
// over 32 snapshots of its churn, with delta pruning off. Every
// tree-stable transition then decides difference pruning from one
// forward BFS of the changed edges' heads; the rest of each op is the
// walks of the candidates it cannot reuse.
func BenchmarkCrashSimTDiffPruning(b *testing.B) {
	prof, err := gen.ProfileByName("as-733")
	if err != nil {
		b.Fatal(err)
	}
	tg, err := prof.Scaled(0.03).WithSnapshots(32).Temporal(1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := tg.Snapshot(0)
	if err != nil {
		b.Fatal(err)
	}
	const c, eps, delta = 0.6, 0.025, 0.01
	n := tg.NumNodes()
	// The ablation's walk count: n_r of Lemma 3 scaled by 0.02, at
	// least 20.
	nr := max(20, int(float64(DeriveIterations(c, eps, delta, DeriveLmax(c), n))*0.02))
	p := Params{C: c, Eps: eps, Delta: delta, Iterations: nr, Seed: 7}
	u := graph.GiantComponent(g)[0]
	q := trendQuery{slack: eps}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := CrashSimT(tg, u, q, p, TemporalOptions{DisableDeltaPruning: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.ReusedDiff == 0 {
			b.Fatal("difference pruning never reused a score")
		}
	}
}
