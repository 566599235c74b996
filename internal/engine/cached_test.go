package engine

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crashsim/internal/cache"
	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

func testCache(t testing.TB) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{MaxBytes: 8 << 20, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fakeEstimator counts backend calls and can block to let concurrent
// requests pile up behind one in-flight computation.
type fakeEstimator struct {
	calls atomic.Int64
	gate  chan struct{} // when non-nil, SingleSource blocks on it
	score func() float64
}

func (f *fakeEstimator) Name() string { return "fake" }

func (f *fakeEstimator) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	f.calls.Add(1)
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := 1.0
	if f.score != nil {
		s = f.score()
	}
	return core.Scores{u: 1, u + 1: s}, nil
}

func TestCachedValidation(t *testing.T) {
	if _, err := Cached(&fakeEstimator{}, CacheConfig{}); err == nil {
		t.Fatal("Cached accepted a nil cache")
	}
}

// TestCachedCoalesces: N concurrent identical single-source queries
// through the cached wrapper must execute the backend exactly once.
// The backend blocks until every other request has joined the
// in-flight call, so the assertion cannot pass by lucky scheduling.
func TestCachedCoalesces(t *testing.T) {
	const n = 12
	c := testCache(t)
	fake := &fakeEstimator{gate: make(chan struct{})}
	est, err := Cached(fake, CacheConfig{Cache: c})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]core.Scores, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = est.SingleSource(context.Background(), 3, nil)
		}(i)
	}
	// Release the backend only once the leader is inside it and all
	// n-1 followers are coalesced behind it.
	for fake.calls.Load() < 1 || c.Stats().Coalesced < n-1 {
		time.Sleep(50 * time.Microsecond)
	}
	close(fake.gate)
	wg.Wait()

	if got := fake.calls.Load(); got != 1 {
		t.Fatalf("backend ran %d times for %d concurrent identical queries, want 1", got, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("query %d diverged: %v vs %v", i, results[i], results[0])
		}
	}
}

// TestCachedInvalidationOnVersionBump: bumping the graph version makes
// cached entries unaddressable, so the next query recomputes; queries
// at the old parameters never see results from the new state or vice
// versa.
func TestCachedInvalidationOnVersionBump(t *testing.T) {
	c := testCache(t)
	var version atomic.Uint64
	fake := &fakeEstimator{}
	fake.score = func() float64 { return float64(version.Load()) }
	est, err := Cached(fake, CacheConfig{
		Cache:   c,
		Version: version.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	s0, err := est.SingleSource(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s0[1] != 0 {
		t.Fatalf("score at version 0 = %v, want 0", s0[1])
	}
	if _, err := est.SingleSource(ctx, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := fake.calls.Load(); got != 1 {
		t.Fatalf("repeat query at same version hit backend (%d calls)", got)
	}

	version.Add(1) // an edge update happened
	s1, err := est.SingleSource(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fake.calls.Load(); got != 2 {
		t.Fatalf("query after version bump did not recompute (%d calls)", got)
	}
	if s1[1] != 1 {
		t.Fatalf("stale score served after version bump: got %v, want 1", s1[1])
	}
}

// TestCachedDeterminismAcrossBackends: for every registered backend,
// cached results — cold (miss) and warm (hit) — must equal the
// uncached estimator's results exactly, for single-source, top-k and
// pair queries.
func TestCachedDeterminismAcrossBackends(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig()
	c := testCache(t)
	ctx := context.Background()
	u := graph.NodeID(3)

	for _, name := range Names() {
		plain, err := New(ctx, name, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cachedEst, err := Cached(plain, CacheConfig{
			Cache:   c,
			Version: g.Version,
			Scope:   cfg.Fingerprint(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		want, err := plain.SingleSource(ctx, u, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cold, err := cachedEst.SingleSource(ctx, u, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		warm, err := cachedEst.SingleSource(ctx, u, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(cold, want) || !reflect.DeepEqual(warm, want) {
			t.Errorf("%s: cached single-source diverges from uncached", name)
		}

		wantTop, err := TopK(ctx, plain, u, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pass := 0; pass < 2; pass++ { // miss then hit
			gotTop, err := TopK(ctx, cachedEst, u, 5)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(gotTop, wantTop) {
				t.Errorf("%s: cached top-k pass %d diverges from uncached", name, pass)
			}
		}

		wantPair, err := Pair(ctx, plain, u, u+1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pass := 0; pass < 2; pass++ {
			gotPair, err := Pair(ctx, cachedEst, u, u+1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if gotPair != wantPair {
				t.Errorf("%s: cached pair pass %d = %v, want %v", name, pass, gotPair, wantPair)
			}
		}
	}
}

// TestCachedPreservesCapabilities: the cached wrapper answers every
// operation, but must report the native set of the estimator it wraps
// (so fallbacks still go through the single-source cache keys) and must
// keep its name.
func TestCachedPreservesCapabilities(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig()
	ctx := context.Background()
	c := testCache(t)
	for _, name := range Names() {
		plain, err := New(ctx, name, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wrapped, err := Cached(plain, CacheConfig{Cache: c, Scope: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inner, outer := nativeOps(plain), nativeOps(wrapped); inner != outer {
			t.Errorf("%s: native set mismatch: inner %03b vs cached %03b", name, inner, outer)
		}
		if wrapped.Name() != plain.Name() {
			t.Errorf("%s: cached wrapper renamed estimator to %q", name, wrapped.Name())
		}
	}
}

// TestCachedResultsAreIsolated: a caller mutating its returned map must
// not corrupt the cached canonical copy.
func TestCachedResultsAreIsolated(t *testing.T) {
	c := testCache(t)
	est, err := Cached(&fakeEstimator{}, CacheConfig{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := est.SingleSource(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	first[0] = -99
	first[500] = 1
	second, err := est.SingleSource(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != 1 || len(second) != 2 {
		t.Fatalf("caller mutation leaked into cache: %v", second)
	}
}

// TestCachedOmegaKeying: a nil omega (all nodes) and a non-nil omega
// must occupy distinct cache entries, and distinct omegas must not
// collide.
func TestCachedOmegaKeying(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig()
	ctx := context.Background()
	plain, err := New(ctx, "crashsim", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Cached(plain, CacheConfig{Cache: testCache(t), Version: g.Version})
	if err != nil {
		t.Fatal(err)
	}
	full, err := est.SingleSource(ctx, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := est.SingleSource(ctx, 2, []graph.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(restricted) != 3 {
		t.Fatalf("restricted result has %d entries, want 3 (cache key collided with full query?)", len(restricted))
	}
	if len(full) == 3 {
		t.Fatal("full result suspiciously small; graph misconfigured")
	}
	for v, s := range restricted {
		if full[v] != s {
			t.Fatalf("restricted score(%d) = %v diverges from full %v", v, s, full[v])
		}
	}
}

// TestCachedTemporalNoStaleScores is the temporal staleness regression
// test: with one shared cache across an advancing snapshot sequence,
// a query after an edge update must reflect the new snapshot, never a
// cached score from the old one. The exact backend makes the score
// difference deterministic.
func TestCachedTemporalNoStaleScores(t *testing.T) {
	// Snapshot 0: I(1) = {0, 3}, I(2) = {0}, so sim(1,2) =
	// c/2 · sim(0,0) = 0.3. The delta removes 3->1, leaving
	// I(1) = I(2) = {0} and sim(1,2) = c · sim(0,0) = 0.6 — a
	// deterministic, visible score change from one edge update.
	d := graph.NewDiGraph(4, true)
	for _, e := range []graph.Edge{{X: 0, Y: 1}, {X: 0, Y: 2}, {X: 3, Y: 1}} {
		if err := d.AddEdge(e.X, e.Y); err != nil {
			t.Fatal(err)
		}
	}
	snap0 := d.Freeze()
	if err := d.RemoveEdge(3, 1); err != nil {
		t.Fatal(err)
	}
	snap1 := d.Freeze()
	if snap0.Version() == snap1.Version() {
		t.Fatal("edge update did not change snapshot version")
	}

	cfg := Config{ExactIterations: 30}
	shared := testCache(t)
	ctx := context.Background()

	serve := func(g *graph.Graph) Estimator {
		plain, err := New(ctx, "exact", g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Cached(plain, CacheConfig{Cache: shared, Version: g.Version, Scope: cfg.Fingerprint()})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	// Fill the cache with snapshot-0 results.
	est0 := serve(snap0)
	old, err := est0.SingleSource(ctx, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est0.SingleSource(ctx, 1, nil); err != nil { // warm hit
		t.Fatal(err)
	}

	// Advance: same shared cache, new snapshot.
	est1 := serve(snap1)
	got, err := est1.SingleSource(ctx, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain1, err := New(ctx, "exact", snap1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain1.SingleSource(ctx, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-update cached result diverges from fresh compute: got %v, want %v", got, want)
	}
	if got[2] == old[2] {
		t.Fatalf("sim(1,2) unchanged by the edge update (%v); test graph no longer exercises staleness", got[2])
	}
	// And the old snapshot's entries are still correct under its own
	// version — versions partition the key space, they don't clobber.
	back, err := est0.SingleSource(ctx, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, old) {
		t.Fatal("snapshot-0 entries corrupted by snapshot-1 traffic")
	}
}

// BenchmarkSingleSourceUncached / BenchmarkSingleSourceCached back the
// acceptance criterion that a repeated identical single-source query
// served from cache is at least an order of magnitude faster than the
// uncached path. Compare:
//
//	go test ./internal/engine -bench 'SingleSource(Un)?[Cc]ached' -benchtime 2s
func BenchmarkSingleSourceUncached(b *testing.B) {
	g := testGraph(b)
	cfg := testConfig()
	est, err := New(context.Background(), "crashsim", g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SingleSource(ctx, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleSourceCached(b *testing.B) {
	g := testGraph(b)
	cfg := testConfig()
	plain, err := New(context.Background(), "crashsim", g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cache.New(cache.Config{MaxBytes: 8 << 20, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	est, err := Cached(plain, CacheConfig{Cache: c, Version: g.Version, Scope: cfg.Fingerprint()})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := est.SingleSource(ctx, 3, nil); err != nil { // warm the entry
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SingleSource(ctx, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}
