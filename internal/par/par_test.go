package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCoversRange(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 57
		var hits atomic.Int64
		seen := make([]atomic.Bool, n)
		_ = ForEachCtx(context.Background(), n, workers, func(i int) {
			if seen[i].Swap(true) {
				t.Errorf("workers=%d: index %d visited twice", workers, i)
			}
			hits.Add(1)
		})
		if got := hits.Load(); got != int64(n) {
			t.Errorf("workers=%d: %d calls, want %d", workers, got, n)
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	calls := 0
	_ = ForEachCtx(context.Background(), 0, 4, func(int) { calls++ })
	if calls != 0 {
		t.Errorf("empty range made %d calls", calls)
	}
	_ = ForEachCtx(context.Background(), 1, 4, func(i int) { calls += i + 1 })
	if calls != 1 {
		t.Errorf("single range wrong: %d", calls)
	}
}

func TestChunkSize(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{8, 4, 1},                  // fewer items than workers*chunksPerWorker
		{64, 4, 2},                 // 64/(4*8)
		{10000, 4, 312},            // large loop
		{3, 3, 1},                  // minimum clamps at one item
		{1 << 20, 1 << 4, 1 << 13}, // exact division
	}
	for _, c := range cases {
		if got := chunkSize(c.n, c.workers); got != c.want {
			t.Errorf("chunkSize(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestForEachCtxCancelStopsWithinChunk: once ctx is canceled, no worker
// may claim a new chunk — the only items still executing are the ones
// in chunks already started, so the overrun is bounded by workers×chunk
// items. Run under -race this also exercises the handout for data races
// between the canceling item and the still-draining workers.
func TestForEachCtxCancelStopsWithinChunk(t *testing.T) {
	const (
		n       = 10000
		workers = 4
		trigger = 50
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran, atCancel atomic.Int64
	err := ForEachCtx(ctx, n, workers, func(int) {
		if ran.Add(1) == trigger {
			cancel()
			atCancel.Store(ran.Load())
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx returned %v, want context.Canceled", err)
	}
	// Count from the moment cancel returned, not from the trigger: the
	// canceling worker can be descheduled between the two while the
	// others keep claiming chunks legitimately. Once ctx is done, the
	// canceling item's own chunk plus one in-flight chunk per other
	// worker may still drain; nothing beyond that may start.
	limit := atCancel.Load() + int64(workers*chunkSize(n, workers))
	if got := ran.Load(); got > limit {
		t.Errorf("%d items ran, want <= %d (%d when cancel returned, workers=%d chunk=%d)",
			got, limit, atCancel.Load(), workers, chunkSize(n, workers))
	}
}

// TestForEachCtxPreCanceled: a context canceled before the call must do
// no work at all.
func TestForEachCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEachCtx(ctx, 100, 4, func(int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx returned %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > int64(4*chunkSize(100, 4)) {
		t.Errorf("%d items ran on a pre-canceled context", got)
	}
}
