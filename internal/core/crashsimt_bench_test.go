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
// profile at full scale over 15 snapshots, with the profile's churn on
// 6 evenly spaced transitions and the other 8 quiet.
func asHistory(tb testing.TB) *temporal.Graph {
	tb.Helper()
	prof, err := gen.ProfileByName("as-733")
	if err != nil {
		tb.Fatal(err)
	}
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
	tg, err := temporal.New(prof.Nodes, prof.Directed, edges, deltas)
	if err != nil {
		tb.Fatal(err)
	}
	return tg
}

// BenchmarkCrashSimT runs one trend and one threshold CrashSim-T query
// per op on the as-733 history, from its two highest-degree nodes, at
// the temporal workload's n_r (193) on two workers. B/op and allocs/op
// measure the per-snapshot bookkeeping: snapshot freezes, source-tree
// patches and compiles, and the per-candidate estimates.
func BenchmarkCrashSimT(b *testing.B) {
	tg := asHistory(b)
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
