package probesim

import (
	"math"
	"strings"
	"testing"

	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"bad c", Options{C: 2}},
		{"bad eps", Options{Eps: -1}},
		{"bad delta", Options{Delta: 3}},
		{"NaN c", Options{C: math.NaN()}},
		{"NaN eps", Options{Eps: math.NaN()}},
		{"NaN delta", Options{Delta: math.NaN()}},
		{"bad iterations", Options{Iterations: -1}},
		{"iterations above bound", Options{Iterations: 1<<24 + 1}},
		{"bad depth", Options{MaxDepth: -2}},
	}
	for _, tc := range cases {
		if err := tc.o.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	if err := (Options{Iterations: 1 << 24}).Validate(); err != nil {
		t.Errorf("iterations at the bound rejected: %v", err)
	}
}

// TestDerivedIterationsRefused: a tiny Eps passes Validate but derives
// an n_r past any int (Eps 1e-200, which used to wrap to a count below
// one and return no neighbours and no error) or one no query would
// finish (Eps 1e-8). The query must refuse it up front, naming Eps.
func TestDerivedIterationsRefused(t *testing.T) {
	g := graph.PaperExample()
	for _, eps := range []float64{1e-200, 1e-8} {
		o := Options{Eps: eps}
		if err := o.Validate(); err != nil {
			t.Fatalf("Eps %g: Validate refused it (%v); the derived count must be what refuses it", eps, err)
		}
		if _, err := SingleSource(g, 0, o); err == nil || !strings.Contains(err.Error(), "Eps") {
			t.Errorf("Eps %g: SingleSource returned %v, want an error naming Eps", eps, err)
		}
	}
}

func TestSingleSourceErrors(t *testing.T) {
	g := graph.PaperExample()
	if _, err := SingleSource(g, -1, Options{Iterations: 5}); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := SingleSource(g, 99, Options{Iterations: 5}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := SingleSource(g, 0, Options{C: 9}); err == nil {
		t.Error("bad options accepted")
	}
}

func TestSelfScoreAndRange(t *testing.T) {
	g := graph.PaperExample()
	s, err := SingleSource(g, 0, Options{Iterations: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Errorf("s(u,u) = %g, want 1", s[0])
	}
	for v, score := range s {
		if score < 0 || score > 1+1e-9 {
			t.Errorf("score of %d = %g outside [0,1]", v, score)
		}
	}
}

// TestAccuracyAgainstPowerMethod is the core correctness check: ProbeSim
// with a modest ε must track the Power Method on the example graph and a
// random graph. Runs are seeded, so tolerances are stable.
func TestAccuracyAgainstPowerMethod(t *testing.T) {
	graphs := map[string]*graph.Graph{"paper-example": graph.PaperExample()}
	edges, err := gen.ErdosRenyi(60, 180, true, 2)
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
		s, err := SingleSource(g, 0, Options{C: 0.6, Eps: 0.05, Delta: 0.01, Seed: 8})
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
			t.Errorf("%s: max error %.4f above tolerance", name, worst)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.PaperExample()
	a, err := SingleSource(g, 1, Options{Iterations: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SingleSource(g, 1, Options{Iterations: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("same seed, different score at %d", v)
		}
	}
}

func TestPruningDisabled(t *testing.T) {
	// A negative threshold disables pruning entirely; results should be
	// at least as accurate as the default pruned run.
	g := graph.PaperExample()
	gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SingleSource(g, 0, Options{Iterations: 2000, PruneThreshold: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v, score := range s {
		if d := math.Abs(score - gt.Sim(0, v)); d > 0.08 {
			t.Errorf("unpruned score of %d off by %.4f", v, d)
		}
	}
}

func TestDanglingSource(t *testing.T) {
	// A source with no in-neighbors has sim(u,v) = 0 for all v != u.
	g := graph.NewBuilder(3, true).AddEdge(0, 2).AddEdge(1, 2).MustFreeze()
	s, err := SingleSource(g, 0, Options{Iterations: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Errorf("s(u,u) = %g", s[0])
	}
	for v, score := range s {
		if v != 0 && score != 0 {
			t.Errorf("dangling source has nonzero score %g at %d", score, v)
		}
	}
}
