package reads

import (
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
	g, err := graph.NewBuilder(n, true).AddEdges(edges).Freeze()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkBuild measures generating and indexing r walks per node.
func BenchmarkBuild(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Options{R: 100, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery measures a single-source query against a built index.
func BenchmarkQuery(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	ix, err := Build(g, Options{R: 100, RQ: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SingleSource(graph.NodeID(i % 2000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyEdge measures the incremental update path: toggling one
// edge back and forth, which regenerates only the walks through its
// head.
func BenchmarkApplyEdge(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	ix, err := Build(g, Options{R: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e := graph.Edge{X: 0, Y: 1999}
	for ix.Graph().HasEdge(e.X, e.Y) {
		e.Y--
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.ApplyEdge(e, i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}
