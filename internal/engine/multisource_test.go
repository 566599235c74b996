package engine

import (
	"context"
	"errors"
	"testing"

	"crashsim/internal/cache"
	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// TestMultiSourceAllBackends: the package-level MultiSource entry point
// must reproduce per-source SingleSource results exactly on every
// registered backend — natively batched on crashsim, via the
// sequential-loop fallback everywhere else. The batch includes a
// duplicate so the dedup path is covered on the native backend.
func TestMultiSourceAllBackends(t *testing.T) {
	g := testGraph(t)
	sources := []graph.NodeID{0, 3, 17, 3}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			est, err := New(context.Background(), name, g, testConfig())
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			batch, err := MultiSource(context.Background(), est, sources)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(sources) {
				t.Fatalf("batch has %d entries, want %d", len(batch), len(sources))
			}
			for i, u := range sources {
				want, err := est.SingleSource(context.Background(), u, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch[i]) != len(want) {
					t.Fatalf("source %d: %d vs %d entries", u, len(batch[i]), len(want))
				}
				for v, s := range want {
					if batch[i][v] != s {
						t.Errorf("source %d node %d: batch %g != single %g", u, v, batch[i][v], s)
					}
				}
			}
		})
	}
}

// TestMultiSourceCapability: the metering wrapper must report the
// native batch capability exactly where the backend has one.
func TestMultiSourceCapability(t *testing.T) {
	g := graph.PaperExample()
	cfg := Config{Iterations: 50, Seed: 1, Metrics: obs.NewRegistry()}
	cs, err := New(context.Background(), "crashsim", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nativeOps(cs)&opMulti == 0 {
		t.Error("metered crashsim lost the native batch capability")
	}
	ps, err := New(context.Background(), "probesim", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nativeOps(ps)&opMulti != 0 {
		t.Error("metered probesim reports a native batch mode it does not have")
	}
}

// cancelAfterEstimator fails its nth SingleSource call with the
// context's error after canceling it, simulating a client disconnect
// mid-batch.
type cancelAfterEstimator struct {
	after  int
	calls  int
	cancel context.CancelFunc
}

func (c *cancelAfterEstimator) Name() string { return "cancelafter" }

func (c *cancelAfterEstimator) SingleSource(ctx context.Context, u graph.NodeID, _ []graph.NodeID) (core.Scores, error) {
	c.calls++
	if c.calls > c.after {
		c.cancel()
		return nil, ctx.Err()
	}
	return core.Scores{u: 1}, nil
}

// TestMultiSourceFallbackPartial: when a mid-batch query fails with
// cancellation, the generic fallback returns the completed prefix
// together with ctx.Err(), so callers can keep what finished.
func TestMultiSourceFallbackPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	est := &cancelAfterEstimator{after: 2, cancel: cancel}
	batch, err := MultiSource(ctx, est, []graph.NodeID{0, 1, 2, 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(batch) != 2 {
		t.Fatalf("partial batch has %d entries, want the 2 completed before cancellation", len(batch))
	}
	for i, u := range []graph.NodeID{0, 1} {
		if batch[i][u] != 1 {
			t.Errorf("partial entry %d missing its score: %v", i, batch[i])
		}
	}
}

// TestMultiSourceCachedSharesKeys: batch and single-source queries must
// address the same cache entries — a batch warms the cache for single
// queries and vice versa — and a fully cached batch must not touch the
// backend.
func TestMultiSourceCachedSharesKeys(t *testing.T) {
	g := graph.PaperExample()
	reg := obs.NewRegistry()
	qc, err := cache.New(cache.Config{MaxBytes: 1 << 20, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Iterations: 60, Seed: 2, Metrics: obs.NewRegistry()}
	inner, err := New(context.Background(), "crashsim", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Cached(inner, CacheConfig{Cache: qc, Scope: cfg.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	ms, ok := est.(MultiSourcer)
	if !ok {
		t.Fatal("cached wrapper lost the MultiSourcer capability")
	}
	ctx := context.Background()

	// Warm source 0 via a single query, then batch {0,1,0}: only source
	// 1 is a miss, and the duplicate 0 costs one probe, not two.
	single, err := est.SingleSource(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ms.MultiSource(ctx, []graph.NodeID{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range single {
		if batch[0][v] != s || batch[2][v] != s {
			t.Fatalf("batch result for source 0 differs from the cached single query at node %d", v)
		}
	}
	// A repeat of the whole batch must be served entirely from cache.
	misses := reg.Counter("cache.misses").Load()
	if _, err := ms.MultiSource(ctx, []graph.NodeID{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cache.misses").Load(); got != misses {
		t.Errorf("fully cached batch missed the cache (%d -> %d misses)", misses, got)
	}
	// And a single query for the batch-computed source 1 hits too.
	hits := reg.Counter("cache.hits").Load()
	if _, err := est.SingleSource(ctx, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cache.hits").Load(); got != hits+1 {
		t.Errorf("single query after batch: hits %d -> %d, want +1", hits, got)
	}
	// Batch results are clones: mutating one must not corrupt the cache.
	batch[1][0] = -5
	again, err := est.SingleSource(ctx, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] == -5 {
		t.Error("mutating a batch result corrupted the cached canonical copy")
	}
}

// TestMultiSourceCachedCountsOnce: a batch counts each source's cache
// lookup exactly once — a cold batch of 3 distinct sources records 3
// misses (the probe that finds nothing does not count on top of the
// fill), and a repeat records 3 hits and no new misses.
func TestMultiSourceCachedCountsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	qc, err := cache.New(cache.Config{MaxBytes: 1 << 20, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Iterations: 40, Seed: 3, Metrics: obs.NewRegistry()}
	inner, err := New(context.Background(), "crashsim", graph.PaperExample(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Cached(inner, CacheConfig{Cache: qc, Scope: cfg.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := reg.Counter("cache.hits"), reg.Counter("cache.misses")
	batch := []graph.NodeID{0, 1, 2}
	if _, err := MultiSource(context.Background(), est, batch); err != nil {
		t.Fatal(err)
	}
	if h, m := hits.Load(), misses.Load(); h != 0 || m != 3 {
		t.Errorf("cold batch: %d hits, %d misses; want 0 and 3", h, m)
	}
	if _, err := MultiSource(context.Background(), est, batch); err != nil {
		t.Fatal(err)
	}
	if h, m := hits.Load(), misses.Load(); h != 3 || m != 3 {
		t.Errorf("repeated batch: %d hits, %d misses in total; want 3 and 3", h, m)
	}
}

// TestRankDeterministicTies pins core.Top's tie-breaking, which the
// TopK fallback ranks with: equal scores order by ascending node id,
// never by map iteration order, so repeated queries return one stable
// ranking.
func TestRankDeterministicTies(t *testing.T) {
	s := core.Scores{9: 0.5, 3: 0.5, 7: 0.5, 1: 0.5, 4: 0.9, 2: 0.1}
	want := []core.TopKResult{
		{Node: 4, Score: 0.9},
		{Node: 1, Score: 0.5}, {Node: 3, Score: 0.5}, {Node: 7, Score: 0.5}, {Node: 9, Score: 0.5},
		{Node: 2, Score: 0.1},
	}
	for trial := 0; trial < 20; trial++ {
		for k := 1; k <= len(want)+1; k++ {
			got := core.Top(s, 0, k)
			if n := min(k, len(want)); len(got) != n {
				t.Fatalf("Top(k=%d) returned %d entries, want %d", k, len(got), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: rank[%d] = %+v, want %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}
