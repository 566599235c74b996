package prsim

import (
	"reflect"
	"testing"

	"crashsim/internal/graph"
)

// TestImportBorrowedBitIdentical: the borrow import the mapped loader
// uses under its trusting policies, ImportFlat without the per-entry
// scan, must behave exactly like the validating one — same hub
// attribution, same scores, working lazy tail fill layered over the
// adopted columns — and release its hook exactly once on Close.
func TestImportBorrowedBitIdentical(t *testing.T) {
	g := testGraph(t, 120, 700, 33)
	ix, err := Build(g, Options{HubFraction: 0.1, Iterations: 50, DSamples: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10; u++ { // warm a few tail tables into the flat
		if _, err := ix.SingleSource(graph.NodeID(u)); err != nil {
			t.Fatal(err)
		}
	}
	p := ix.Export()
	copied, err := ImportFlat(g, p, true)
	if err != nil {
		t.Fatal(err)
	}
	borrowed, err := ImportFlat(g, p, false)
	if err != nil {
		t.Fatal(err)
	}
	released := 0
	borrowed.SetRelease(func() error { released++; return nil })
	if borrowed.HubCount() != copied.HubCount() {
		t.Fatalf("HubCount = %d, want %d", borrowed.HubCount(), copied.HubCount())
	}
	// Query past the warmed prefix so the borrowed index exercises lazy
	// tail fill (heap-side tables next to the adopted columns).
	for u := 0; u < g.NumNodes(); u += 5 {
		want, err := copied.SingleSource(graph.NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		got, err := borrowed.SingleSource(graph.NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("borrowed scores differ at source %d", u)
		}
	}
	if !reflect.DeepEqual(borrowed.Export(), copied.Export()) {
		t.Fatal("borrowed re-export differs from copied re-export")
	}
	if err := borrowed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := borrowed.Close(); err != nil {
		t.Fatal(err)
	}
	if released != 1 {
		t.Fatalf("release ran %d times, want exactly once", released)
	}
}

// TestImportBorrowedStillChecksShape: skipping semantic validation
// must not skip the structural checks that keep indexing in bounds.
func TestImportBorrowedStillChecksShape(t *testing.T) {
	g := testGraph(t, 60, 300, 4)
	ix, err := Build(g, Options{HubFraction: 0.1, Iterations: 40, DSamples: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := ix.Export()
	p.LevelCounts = p.LevelCounts[:len(p.LevelCounts)-1]
	if _, err := ImportFlat(g, p, false); err == nil {
		t.Fatal("truncated level counts accepted")
	}
}
