package engine

import (
	"context"
	"sync"
	"testing"

	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// TestMeteringCounts: every query through a built estimator shows up
// in the per-backend counters and the latency quantile histogram.
func TestMeteringCounts(t *testing.T) {
	reg := obs.NewRegistry()
	g := graph.PaperExample()
	est, err := New(context.Background(), "crashsim", g, Config{Iterations: 50, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.SingleSource(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := TopK(context.Background(), est, 0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Pair(context.Background(), est, 0, 3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("engine.crashsim.queries").Load(); got != 3 {
		t.Errorf("queries = %d, want 3", got)
	}
	for _, op := range []string{"singlesource", "topk", "pair"} {
		if got := reg.Counter("engine.crashsim.queries." + op).Load(); got != 1 {
			t.Errorf("queries.%s = %d, want 1", op, got)
		}
	}
	if got := reg.Quantile("engine.crashsim.latency").Count(); got != 3 {
		t.Errorf("latency count = %d, want 3", got)
	}
	if got := reg.Counter("engine.crashsim.errors").Load(); got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
}

// TestMeteringCancellation: a canceled query lands in the canceled
// counter, not errors.
func TestMeteringCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	est, err := New(context.Background(), "crashsim", graph.PaperExample(),
		Config{Iterations: 50, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.SingleSource(ctx, 0, nil); err == nil {
		t.Fatal("canceled query succeeded")
	}
	if got := reg.Counter("engine.crashsim.canceled").Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
	if got := reg.Counter("engine.crashsim.errors").Load(); got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
}

// TestConcurrentQueries serves every backend's three query ops from
// many goroutines through one shared (metered) estimator; under -race
// this checks the whole serving path — estimator, metering wrapper,
// core scratch pools — for data races, and that concurrent results
// stay identical to sequential ones.
func TestConcurrentQueries(t *testing.T) {
	g := graph.PaperExample()
	for _, algo := range Names() {
		est, err := New(context.Background(), algo, g, Config{Iterations: 80, Seed: 7, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		want, err := est.SingleSource(context.Background(), 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := est.SingleSource(context.Background(), 0, nil)
				if err != nil {
					t.Errorf("%s: concurrent single-source: %v", algo, err)
					return
				}
				for v, s := range want {
					if got[v] != s {
						t.Errorf("%s: concurrent score for %d = %g, want %g", algo, v, got[v], s)
						return
					}
				}
				if _, err := TopK(context.Background(), est, 0, 3); err != nil {
					t.Errorf("%s: concurrent top-k: %v", algo, err)
				}
				if _, err := Pair(context.Background(), est, 0, 3); err != nil {
					t.Errorf("%s: concurrent pair: %v", algo, err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestMeteringPreservesCapabilities: the wrapper must report the
// backend's native set, not its own, so operations the backend lacks
// still run the generic fallbacks.
func TestMeteringPreservesCapabilities(t *testing.T) {
	g := graph.PaperExample()
	cases := []struct {
		algo       string
		topK, pair bool
	}{
		{"crashsim", true, true},
		{"probesim", false, false},
		{"exact", false, true},
	}
	for _, tc := range cases {
		est, err := New(context.Background(), tc.algo, g, Config{Iterations: 50, Seed: 1, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		native := nativeOps(est)
		if ok := native&opTopK != 0; ok != tc.topK {
			t.Errorf("%s: native top-k = %t, want %t", tc.algo, ok, tc.topK)
		}
		if ok := native&opPair != 0; ok != tc.pair {
			t.Errorf("%s: native pair = %t, want %t", tc.algo, ok, tc.pair)
		}
		if est.Name() != tc.algo {
			t.Errorf("Name() = %q through wrapper, want %q", est.Name(), tc.algo)
		}
	}
}
