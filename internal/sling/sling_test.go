package sling

import (
	"math"
	"testing"

	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{C: 2}, {Eps: 7}, {Lmax: -1}, {DSamples: -1}, {Lmax: maxLmax + 1}, {DSamples: maxDSamples + 1},
		{C: math.NaN()}, {Eps: math.NaN()}} {
		if err := o.Validate(); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	if err := (Options{Lmax: maxLmax, DSamples: maxDSamples}).Validate(); err != nil {
		t.Errorf("options at their upper bounds rejected: %v", err)
	}
}

func TestBuildRejectsBadOptions(t *testing.T) {
	if _, err := Build(graph.PaperExample(), Options{C: 5}); err == nil {
		t.Error("bad options accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	ix, err := Build(graph.PaperExample(), Options{DSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SingleSource(-1); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := ix.SingleSource(99); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestDValuesInRange(t *testing.T) {
	g := graph.PaperExample()
	ix, err := Build(g, Options{C: 0.6, DSamples: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		d := ix.D(v)
		// d(x) >= Pr[one walk stops immediately twice...] >= 1 - c.
		if d < 1-0.6-0.1 || d > 1 {
			t.Errorf("d(%d) = %g outside plausible range", v, d)
		}
	}
	if ix.DistSize() == 0 {
		t.Error("index stored no distribution entries")
	}
}

// TestAccuracyAgainstPowerMethod checks the index + d-correction query
// against ground truth on the example graph and a random graph.
func TestAccuracyAgainstPowerMethod(t *testing.T) {
	graphs := map[string]*graph.Graph{"paper-example": graph.PaperExample()}
	edges, err := gen.ErdosRenyi(60, 180, true, 6)
	if err != nil {
		t.Fatal(err)
	}
	if graphs["random"], err = gen.BuildStatic(60, true, edges); err != nil {
		t.Fatal(err)
	}
	for name, g := range graphs {
		gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(g, Options{C: 0.6, Eps: 0.025, DSamples: 400, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u += 7 {
			s, err := ix.SingleSource(u)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for v := 0; v < g.NumNodes(); v++ {
				if d := math.Abs(s[graph.NodeID(v)] - gt.Sim(u, graph.NodeID(v))); d > worst {
					worst = d
				}
			}
			if worst > 0.08 {
				t.Errorf("%s: source %d max error %.4f above tolerance", name, u, worst)
			}
		}
	}
}

func TestSelfScore(t *testing.T) {
	ix, err := Build(graph.PaperExample(), Options{DSamples: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.SingleSource(2)
	if err != nil {
		t.Fatal(err)
	}
	if s[2] != 1 {
		t.Errorf("s(u,u) = %g, want 1", s[2])
	}
}

func TestDeterministicBuild(t *testing.T) {
	g := graph.PaperExample()
	a, err := Build(g, Options{DSamples: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// A parallel build must produce bit-identical results.
	b, err := Build(g, Options{DSamples: 50, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != len(sb) {
		t.Fatal("result sizes differ")
	}
	for v := range sa {
		if sa[v] != sb[v] {
			t.Fatalf("same seed, different score at %d", v)
		}
	}
}
