package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/probesim"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	edges, err := gen.ChungLu(300, 1800, 2.0, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(300, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testConfig() Config {
	return Config{Iterations: 120, Seed: 11, ReadsR: 20, ReadsRQ: 5, SlingDSamples: 30, ExactIterations: 20}
}

func TestNames(t *testing.T) {
	want := []string{"crashsim", "exact", "probesim", "prsim", "reads", "sling"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if _, err := New(context.Background(), "nope", graph.PaperExample(), Config{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := New(context.Background(), "crashsim", nil, Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestCanceledContext: a SingleSource call with an already-canceled
// context must return promptly with ctx.Err() on every backend, and a
// canceled New must not build an index.
func TestCanceledContext(t *testing.T) {
	g := testGraph(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		est, err := New(context.Background(), name, g, testConfig())
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if _, err := est.SingleSource(canceled, 0, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: SingleSource with canceled ctx: err = %v, want context.Canceled", name, err)
		}
		if _, err := TopK(canceled, est, 0, 5); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: TopK with canceled ctx: err = %v, want context.Canceled", name, err)
		}
		if _, err := Pair(canceled, est, 0, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Pair with canceled ctx: err = %v, want context.Canceled", name, err)
		}
		if _, err := New(canceled, name, g, testConfig()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: New with canceled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCancellationMidQuery: cancellation during a long-running estimate
// aborts it (rather than only being checked at entry).
func TestCancellationMidQuery(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig()
	cfg.Iterations = 2_000_000 // far more work than the deadline allows
	est, err := New(context.Background(), "crashsim", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	if _, err := est.SingleSource(ctx, 0, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMatchesDirectCalls: engine adapters must return exactly what the
// underlying packages return for the same parameters.
func TestMatchesDirectCalls(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig()
	u := graph.NodeID(3)

	est, err := New(context.Background(), "crashsim", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.SingleSource(context.Background(), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SingleSource(g, u, nil, core.Params{Iterations: cfg.Iterations, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("crashsim adapter diverges from core.SingleSource")
	}

	est, err = New(context.Background(), "probesim", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err = est.SingleSource(context.Background(), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := probesim.SingleSource(g, u, probesim.Options{Iterations: cfg.Iterations, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, core.Scores(pw)) {
		t.Error("probesim adapter diverges from probesim.SingleSource")
	}
}

// TestOmegaRestriction: families without a native partial mode must
// still honor the candidate-set contract.
func TestOmegaRestriction(t *testing.T) {
	g := testGraph(t)
	omega := []graph.NodeID{0, 1, 2, 7}
	for _, name := range Names() {
		est, err := New(context.Background(), name, g, testConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := est.SingleSource(context.Background(), 0, omega)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s) != len(omega) {
			t.Errorf("%s: restricted result has %d entries, want %d", name, len(s), len(omega))
		}
		if s[0] != 1 {
			t.Errorf("%s: self score = %g, want 1", name, s[0])
		}
		if _, err := est.SingleSource(context.Background(), 0, []graph.NodeID{9999}); err == nil {
			t.Errorf("%s: out-of-range candidate accepted", name)
		}
		if _, err := est.SingleSource(context.Background(), 9999, nil); err == nil {
			t.Errorf("%s: out-of-range source accepted", name)
		}
	}
}

// TestAccuracyAgainstExact: every Monte-Carlo backend must land within
// a loose additive bound of the Power Method on the same graph — a
// sanity check that the adapters wire parameters through correctly.
func TestAccuracyAgainstExact(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig()
	cfg.Iterations = 800
	u := graph.NodeID(5)
	gt, err := New(context.Background(), "exact", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := gt.SingleSource(context.Background(), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"crashsim", "probesim", "sling", "reads", "prsim"} {
		est, err := New(context.Background(), name, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := est.SingleSource(context.Background(), u, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		worst := 0.0
		for v, tv := range truth {
			if d := math.Abs(s[v] - tv); d > worst {
				worst = d
			}
		}
		if worst > 0.15 {
			t.Errorf("%s: max error vs power method = %.3f", name, worst)
		}
	}
}

// TestPoolingDeterminism: cold vs warm scratch pools and workers=1 vs
// workers=N must produce bit-identical Scores for fixed seeds. Two
// collections empty every sync.Pool, victim cache included, so a cold
// run allocates all its scratch afresh; repeated warm runs exercise
// recycled pool buffers.
func TestPoolingDeterminism(t *testing.T) {
	g := testGraph(t)
	u := graph.NodeID(2)
	coldPools := func() {
		runtime.GC()
		runtime.GC()
	}
	coldPools()
	want, err := core.SingleSource(g, u, nil, core.Params{Iterations: 150, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		p    core.Params
		cold bool
	}{
		{"pooled-w1", core.Params{Iterations: 150, Seed: 9, Workers: 1}, false},
		{"pooled-w4", core.Params{Iterations: 150, Seed: 9, Workers: 4}, false},
		{"cold-w4", core.Params{Iterations: 150, Seed: 9, Workers: 4}, true},
		{"pooled-w1-warm", core.Params{Iterations: 150, Seed: 9, Workers: 1}, false},
		{"pooled-w4-warm", core.Params{Iterations: 150, Seed: 9, Workers: 4}, false},
	}
	for _, v := range variants {
		if v.cold {
			coldPools()
		}
		got, err := core.SingleSource(g, u, nil, v.p)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", v.name, len(got), len(want))
		}
		for node, s := range want {
			if got[node] != s { // exact float equality: bit-identical or bust
				t.Fatalf("%s: score(%d) = %v, want %v", v.name, node, got[node], s)
			}
		}
	}
}

// TestTopKFallback: the generic TopK must agree with ranking a full
// single-source pass, and crashsim's native path must stay consistent
// with its own full estimate.
func TestTopKFallback(t *testing.T) {
	g := testGraph(t)
	est, err := New(context.Background(), "sling", g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	top, err := TopK(context.Background(), est, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("got %d results, want 5", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Error("top-k not sorted by score")
		}
	}
	for _, r := range top {
		if r.Node == 4 {
			t.Error("source in top-k result")
		}
	}
	p, err := Pair(context.Background(), est, 4, top[0].Node)
	if err != nil {
		t.Fatal(err)
	}
	if p != top[0].Score {
		t.Errorf("Pair = %g, top-1 score = %g", p, top[0].Score)
	}
}
