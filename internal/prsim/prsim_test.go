package prsim

import (
	"math"
	"testing"

	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{C: 2}, {Eps: 7}, {HubFraction: 2}, {Iterations: -1}, {MaxDepth: -1},
		{Iterations: maxIterations + 1}, {MaxDepth: maxDepthLimit + 1}, {DSamples: maxDSamples + 1},
		{C: math.NaN()}, {Eps: math.NaN()}, {Delta: math.NaN()}, {HubFraction: math.NaN()}, {Prune: math.NaN()}} {
		if err := o.Validate(); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	if err := (Options{Iterations: maxIterations, MaxDepth: maxDepthLimit, DSamples: maxDSamples}).Validate(); err != nil {
		t.Errorf("options at their upper bounds rejected: %v", err)
	}
}

func TestBuildHubSelection(t *testing.T) {
	edges, err := gen.ChungLu(200, 1200, 2.0, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(200, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{HubFraction: 0.1, Iterations: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.HubCount() != 20 {
		t.Errorf("HubCount = %d, want 20", ix.HubCount())
	}
	// Hubs must be the highest in-degree nodes: every built table's node
	// must have in-degree >= the 20th largest.
	degs := make([]int, 0, 200)
	for v := graph.NodeID(0); v < 200; v++ {
		degs = append(degs, g.InDegree(v))
	}
	// Selection sort the top 20 to find the cutoff.
	for i := 0; i < 20; i++ {
		max := i
		for j := i + 1; j < len(degs); j++ {
			if degs[j] > degs[max] {
				max = j
			}
		}
		degs[i], degs[max] = degs[max], degs[i]
	}
	cutoff := degs[19]
	built := 0
	for v := graph.NodeID(0); v < 200; v++ {
		if ix.tables[v].Load() != nil {
			built++
			if g.InDegree(v) < cutoff {
				t.Errorf("node %d (deg %d) indexed but below hub cutoff %d", v, g.InDegree(v), cutoff)
			}
		}
	}
	if built != 20 {
		t.Errorf("%d tables built eagerly, want 20", built)
	}
	if _, err := Build(g, Options{C: 9}); err == nil {
		t.Error("bad options accepted")
	}
}

// TestAccuracyAgainstPowerMethod across hub fractions: accuracy must
// not depend on how much is indexed (only speed does).
func TestAccuracyAgainstPowerMethod(t *testing.T) {
	edges, err := gen.ChungLu(60, 240, 2.0, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(60, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, hf := range []float64{0.001, 0.2, 1.0} {
		ix, err := Build(g, Options{C: 0.6, Eps: 0.05, HubFraction: hf, DSamples: 400, Seed: 9})
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
		if worst > 0.08 {
			t.Errorf("hub fraction %g: max error %.4f above 0.08", hf, worst)
		}
	}
}

// TestHubFractionInvariance: the estimate must be identical whatever is
// pre-indexed — hubs only change when tables are built, not what they
// contain.
func TestHubFractionInvariance(t *testing.T) {
	g := graph.PaperExample()
	var prev map[graph.NodeID]float64
	for _, hf := range []float64{0.001, 0.5, 1.0} {
		ix, err := Build(g, Options{Iterations: 300, HubFraction: hf, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s, err := ix.SingleSource(0)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for v := range prev {
				if s[v] != prev[v] {
					t.Fatalf("hub fraction changed result at node %d", v)
				}
			}
			if len(s) != len(prev) {
				t.Fatal("hub fraction changed result size")
			}
		}
		prev = s
	}
}

func TestQueryCaching(t *testing.T) {
	g := graph.PaperExample()
	ix, err := Build(g, Options{Iterations: 100, HubFraction: 0.001, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Repeated queries must agree (lazy caches are append-only).
	a, err := ix.SingleSource(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.SingleSource(1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("repeated query differs at %d", v)
		}
	}
	if _, err := ix.SingleSource(99); err == nil {
		t.Error("bad source accepted")
	}
}

func TestSelfScore(t *testing.T) {
	ix, err := Build(graph.PaperExample(), Options{Iterations: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.SingleSource(3)
	if err != nil {
		t.Fatal(err)
	}
	if s[3] != 1 {
		t.Errorf("s(u,u) = %g", s[3])
	}
	for v, score := range s {
		if score < 0 || score > 1+1e-9 {
			t.Errorf("score of %d = %g outside [0,1]", v, score)
		}
	}
}
