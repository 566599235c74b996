package tsf

import (
	"math"
	"testing"

	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{C: 2}, {Rg: -1}, {MaxLen: -1}} {
		if err := o.Validate(); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

func TestBuildInvariant(t *testing.T) {
	ix, err := Build(graph.PaperExample(), Options{Rg: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(graph.PaperExample(), Options{C: 7}); err == nil {
		t.Error("bad options accepted")
	}
}

func TestSingleSourceBasics(t *testing.T) {
	ix, err := Build(graph.PaperExample(), Options{Rg: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Errorf("s(u,u) = %g", s[0])
	}
	for v, score := range s {
		if score < 0 || score > 1 {
			t.Errorf("score of %d = %g outside [0,1]", v, score)
		}
	}
	if _, err := ix.SingleSource(-1); err == nil {
		t.Error("bad source accepted")
	}
}

// TestAccuracy: the one-way-graph estimator approximates SimRank; the
// node-reuse coupling bias means a looser tolerance than the MC
// baselines (the original system corrects this with query-time
// resampling, see package doc).
func TestAccuracy(t *testing.T) {
	edges, err := gen.ErdosRenyi(50, 150, true, 81)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(50, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{C: 0.6, Rg: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for v := 0; v < g.NumNodes(); v++ {
		if d := math.Abs(s[graph.NodeID(v)] - gt.Sim(0, graph.NodeID(v))); d > worst {
			worst = d
		}
	}
	if worst > 0.15 {
		t.Errorf("max error %.4f above tolerance 0.15", worst)
	}
}

func TestApplyEdgeKeepsInvariant(t *testing.T) {
	edges, err := gen.ErdosRenyi(30, 90, true, 83)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(30, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{Rg: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Delete a few existing edges and add fresh ones, validating the
	// parent invariant after every step.
	updates := []struct {
		e   graph.Edge
		add bool
	}{
		{edges[0], false},
		{edges[1], false},
		{graph.Edge{X: 0, Y: 29}, true},
		{edges[0], true}, // reinstate
	}
	for _, up := range updates {
		if up.add && ix.Graph().HasEdge(up.e.X, up.e.Y) {
			continue
		}
		if !up.add && !ix.Graph().HasEdge(up.e.X, up.e.Y) {
			continue
		}
		if err := ix.ApplyEdge(up.e, up.add); err != nil {
			t.Fatalf("ApplyEdge(%v, %t): %v", up.e, up.add, err)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("after ApplyEdge(%v, %t): %v", up.e, up.add, err)
		}
	}
	if _, err := ix.SingleSource(0); err != nil {
		t.Fatal(err)
	}
	if err := ix.ApplyDelta(nil, []graph.Edge{{X: 0, Y: 1}}); err == nil {
		// edge (0,1) may or may not exist; ensure errors propagate when
		// it does not.
		if !ix.Graph().HasEdge(0, 1) {
			t.Error("deleting a missing edge did not error")
		}
	}
}

// TestDeletionRepairsDanglingSlots: removing a node's last in-edge must
// set the slot to noParent; restoring an edge must repair it.
func TestDeletionRepairsDanglingSlots(t *testing.T) {
	ix, err := Build(graph.NewBuilder(3, true).AddEdge(0, 1).MustFreeze(), Options{Rg: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.ApplyEdge(graph.Edge{X: 0, Y: 1}, false); err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ix.ApplyEdge(graph.Edge{X: 2, Y: 1}, true); err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if ix.parent[k][1] != 2 {
			t.Fatalf("slot (%d,1) = %d, want 2 (only in-neighbor)", k, ix.parent[k][1])
		}
	}
}
