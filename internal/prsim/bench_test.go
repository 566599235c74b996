package prsim

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

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

// BenchmarkBuild measures the eager hub-indexing phase.
func BenchmarkBuild(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Options{HubFraction: 0.05, Iterations: 200, DSamples: 60, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery measures warm queries (tail caches filled).
func BenchmarkQuery(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	ix, err := Build(g, Options{HubFraction: 0.05, Iterations: 200, DSamples: 60, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ix.SingleSource(0); err != nil { // warm the caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SingleSource(graph.NodeID(i % 2000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryWidths measures one single-source query at widths 1 and
// 2 on web-1m@0.1 under the serve-index workload's parameters (ε =
// 0.025, n_q = 20), where the visited columns are long enough for the
// accumulation to be cut into range groups: cold on a fresh index
// imported from the hub tables,
// as a server starts, so the query builds the tail tables its walks
// visit, and warm once every table is built. Sources cycle through the
// 64 highest in-degree nodes and 64 nodes spread over the id range.
func BenchmarkQueryWidths(b *testing.B) {
	prof, err := gen.ProfileByName("web-1m")
	if err != nil {
		b.Fatal(err)
	}
	g, err := prof.Scaled(0.1).Static(1)
	if err != nil {
		b.Fatal(err)
	}
	built, err := Build(g, Options{Eps: 0.025, Iterations: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	hubs := built.Export()
	fresh := func(b *testing.B) *Index {
		ix, err := ImportFlat(g, hubs, false)
		if err != nil {
			b.Fatal(err)
		}
		return ix
	}
	sources := widthSources(g, 128)
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		query := func(b *testing.B, ix *Index, u graph.NodeID) {
			if _, err := ix.MultiSourceResults(ctx, []graph.NodeID{u}, workers); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("cold/w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix := fresh(b)
				b.StartTimer()
				query(b, ix, sources[i%len(sources)])
			}
		})
		b.Run(fmt.Sprintf("warm/w%d", workers), func(b *testing.B) {
			ix := fresh(b)
			for _, u := range sources {
				query(b, ix, u)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(b, ix, sources[i%len(sources)])
			}
		})
	}
}

// widthSources returns k query sources of g: its k/2 highest
// in-degree nodes, then k/2 nodes evenly spread over the id range.
func widthSources(g *graph.Graph, k int) []graph.NodeID {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	slices.SortStableFunc(nodes, func(a, b graph.NodeID) int { return g.InDegree(b) - g.InDegree(a) })
	out := slices.Clone(nodes[:k/2])
	for i := range k - k/2 {
		out = append(out, graph.NodeID(i*g.NumNodes()/(k-k/2)))
	}
	return out
}
