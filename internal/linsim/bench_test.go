package linsim

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
	g, err := gen.BuildStatic(n, true, edges)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkNew measures the diagonal estimation (the build phase).
func BenchmarkNew(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(g, Options{DSamples: 60, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleSource measures one deterministic series query, with
// its allocations.
func BenchmarkSingleSource(b *testing.B) {
	g := benchGraph(b, 2000, 20000)
	s, err := New(g, Options{DSamples: 60, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SingleSource(graph.NodeID(i % 2000)); err != nil {
			b.Fatal(err)
		}
	}
}
