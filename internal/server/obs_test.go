package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// TestMetricsEndpoint drives traffic through every query endpoint and
// checks /metrics reports per-backend query counts, the admission
// counters and engine latency percentiles.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph:   graph.PaperExample(),
		Params:  core.Params{Iterations: 100, Seed: 1},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/singlesource?u=0&k=3", "/singlesource?u=1", "/pair?u=0&v=3", "/topk?u=0&k=2",
	} {
		if rec, body := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %v", path, rec.Code, body)
		}
	}

	rec, body := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if body["algo"] != "crashsim" {
		t.Errorf("algo = %v", body["algo"])
	}
	if body["uptime_seconds"].(float64) < 0 {
		t.Error("negative uptime")
	}
	counters := body["counters"].(map[string]any)
	if got := counters["engine.crashsim.queries"].(float64); got != 4 {
		t.Errorf("engine.crashsim.queries = %v, want 4", got)
	}
	if got := counters["engine.crashsim.queries.pair"].(float64); got != 1 {
		t.Errorf("pair count = %v, want 1", got)
	}
	if got := counters["server.queries"].(float64); got != 4 {
		t.Errorf("server.queries = %v, want 4", got)
	}
	lat := body["quantiles"].(map[string]any)["engine.crashsim.latency"].(map[string]any)
	if lat["count"].(float64) != 4 {
		t.Errorf("engine latency count = %v, want 4", lat["count"])
	}
	if p50, slowest := lat["p50"].(float64), lat["max"].(float64); !(p50 > 0 && p50 <= slowest) {
		t.Errorf("engine latency p50 %v, max %v: want 0 < p50 <= max", p50, slowest)
	}
	if gauges := body["gauges"].(map[string]any); gauges["server.inflight"].(float64) != 0 {
		t.Errorf("inflight gauge = %v after traffic drained", gauges["server.inflight"])
	}
}

// TestMetricsExposesTemporalCounters checks that a server on the
// default registry surfaces internal/core's incremental temporal
// pipeline counters through /metrics — the names the doc comment on
// handleMetrics promises. Values are not asserted (other tests sharing
// obs.Default may tick them); presence is the contract.
func TestMetricsExposesTemporalCounters(t *testing.T) {
	s, err := New(Config{
		Graph:  graph.PaperExample(),
		Params: core.Params{Iterations: 50, Seed: 1},
		// Metrics nil → obs.Default, where core registers its counters.
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, body := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	counters := body["counters"].(map[string]any)
	for _, name := range []string{
		"core.temporal.tree_rebuilt",
		"core.temporal.frozen_reused",
		"core.pool.temporal_hits",
		"core.pool.temporal_misses",
		"core.batch.batches",
		"core.batch.sources",
		"core.batch.dedup_hits",
		"core.batch.items",
		"core.pool.batch_hits",
		"core.pool.batch_misses",
	} {
		if _, ok := counters[name]; !ok {
			t.Errorf("counter %q missing from /metrics snapshot", name)
		}
	}
}

// blockingEstimator parks every query until release closes, so tests
// can hold a slot in the admission gate deterministically.
type blockingEstimator struct {
	started chan struct{}
	release chan struct{}
}

func (b blockingEstimator) Name() string { return "blocktest" }

func (b blockingEstimator) SingleSource(ctx context.Context, u graph.NodeID, _ []graph.NodeID) (core.Scores, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
		return core.Scores{u: 1}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestAdmissionControl saturates a MaxInFlight=1 server with a parked
// query and checks the next query is rejected with 429 + Retry-After,
// then that capacity returns once the slot frees.
func TestAdmissionControl(t *testing.T) {
	est := blockingEstimator{started: make(chan struct{}, 1), release: make(chan struct{})}
	engine.Register("blocktest", func(context.Context, *graph.Graph, engine.Config) (engine.Estimator, error) {
		return est, nil
	})
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph:       graph.PaperExample(),
		Algo:        "blocktest",
		MaxInFlight: 1,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, "/singlesource?u=0", nil)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-est.started // the slot is now held

	rec, body := get(t, s, "/singlesource?u=0")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d (%v), want 429", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if body["error"] == "" {
		t.Error("429 without error body")
	}
	// Health stays outside the gate: a saturated server still reports.
	if rec, _ := get(t, s, "/health"); rec.Code != http.StatusOK {
		t.Errorf("health behind admission gate: %d", rec.Code)
	}

	close(est.release)
	wg.Wait()
	if rec, body := get(t, s, "/singlesource?u=0"); rec.Code != http.StatusOK {
		t.Errorf("freed server answered %d (%v), want 200", rec.Code, body)
	}
	if got := reg.Counter("server.rejected").Load(); got != 1 {
		t.Errorf("server.rejected = %d, want 1", got)
	}
}

// TestEffectiveKReported: a clamped k must be visible in the response,
// not silently applied.
func TestEffectiveKReported(t *testing.T) {
	s, err := New(Config{
		Graph:    graph.PaperExample(),
		Params:   core.Params{Iterations: 50, Seed: 1},
		DefaultK: 2,
		MaxK:     3,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, body := get(t, s, "/singlesource?u=0&k=100")
	if got := body["k"].(float64); got != 3 {
		t.Errorf("clamped k reported as %v, want 3", got)
	}
	_, body = get(t, s, "/topk?u=0")
	if got := body["k"].(float64); got != 2 {
		t.Errorf("default k reported as %v, want 2", got)
	}
}

func TestPprofRegistration(t *testing.T) {
	withP, err := New(Config{
		Graph:       graph.PaperExample(),
		Params:      core.Params{Iterations: 50, Seed: 1},
		EnablePprof: true,
		Metrics:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	withP.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index: %d, want 200", rec.Code)
	}

	without := testServer(t)
	rec = httptest.NewRecorder()
	without.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof mounted without EnablePprof: %d", rec.Code)
	}
}
