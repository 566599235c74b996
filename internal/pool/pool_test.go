package pool

import (
	"testing"

	"crashsim/internal/obs"
)

type item struct {
	n   int
	buf []byte
}

// traffic returns a func reporting the hits and misses counted under
// name since traffic was called. The counters live on the process-wide
// registry, so a repeated run (-count) starts from the last run's
// totals.
func traffic(name string) func() (hits, misses uint64) {
	h, m := obs.Default.Counter(name+"_hits"), obs.Default.Counter(name+"_misses")
	h0, m0 := h.Load(), m.Load()
	return func() (uint64, uint64) { return h.Load() - h0, m.Load() - m0 }
}

// TestGetFreshIsZeroMiss: the first Get on a new pool returns a
// non-nil zero item and counts one miss and no hit.
func TestGetFreshIsZeroMiss(t *testing.T) {
	const name = "pool_test.fresh"
	counted := traffic(name)
	p := New[item](name)
	x := p.Get()
	if x == nil {
		t.Fatal("Get returned nil")
	}
	if x.n != 0 || x.buf != nil {
		t.Fatalf("Get on a fresh pool returned %+v, want the zero item", *x)
	}
	if hits, misses := counted(); hits != 0 || misses != 1 {
		t.Fatalf("hits %d, misses %d; want 0 and 1", hits, misses)
	}
}

// TestEveryGetCountsOnce: each Get counts exactly one hit or one miss,
// whether or not the pool kept what was Put (under -race sync.Pool
// drops items at random, so only the sum is fixed), and an item handed
// back by a hit is one that was Put.
func TestEveryGetCountsOnce(t *testing.T) {
	const (
		name = "pool_test.count"
		gets = 200
	)
	counted := traffic(name)
	p := New[item](name)
	for i := 0; i < gets; i++ {
		x := p.Get()
		if x.n != 0 && x.n != 7 {
			t.Fatalf("Get returned an item no caller Put: %+v", *x)
		}
		x.n = 7
		p.Put(x)
	}
	hits, misses := counted()
	if hits+misses != gets {
		t.Fatalf("hits %d + misses %d = %d, want %d (one per Get)", hits, misses, hits+misses, gets)
	}
	if misses == 0 {
		t.Fatal("no miss counted; the first Get on a new pool must miss")
	}
}

// TestPutNilIsNoOp: Put(nil) stores nothing, so the next Get still
// misses and returns a fresh item.
func TestPutNilIsNoOp(t *testing.T) {
	const name = "pool_test.nil"
	counted := traffic(name)
	p := New[item](name)
	p.Put(nil)
	x := p.Get()
	if x == nil || x.n != 0 {
		t.Fatalf("Get after Put(nil) = %v, want a fresh zero item", x)
	}
	if hits, misses := counted(); hits != 0 || misses != 1 {
		t.Fatalf("hits %d, misses %d after Put(nil); want 0 and 1", hits, misses)
	}
}
