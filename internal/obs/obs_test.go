package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	if r.Counter("a.b") != c {
		t.Error("counter lookup not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Load() != 5 {
		t.Errorf("gauge = %d, want 5", g.Load())
	}
}

func TestSnapshotJSONAndDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries").Add(10)
	r.Gauge("inflight").Set(3)
	r.Quantile("lat").Observe(5 * time.Millisecond)
	before := r.Snapshot()

	r.Counter("queries").Add(7)
	r.Quantile("lat").Observe(50 * time.Millisecond)
	after := r.Snapshot()

	d := after.Delta(before)
	if d.Counters["queries"] != 7 {
		t.Errorf("delta counter = %d, want 7", d.Counters["queries"])
	}
	// Percentiles do not subtract: Delta keeps the later summary.
	if d.Quantiles["lat"] != after.Quantiles["lat"] || d.Quantiles["lat"].Count != 2 {
		t.Errorf("delta quantiles = %+v, want the later summary %+v", d.Quantiles["lat"], after.Quantiles["lat"])
	}
	if d.Gauges["inflight"] != 3 {
		t.Errorf("delta gauge = %d, want current value 3", d.Gauges["inflight"])
	}

	// The snapshot must marshal cleanly.
	if _, err := json.Marshal(after); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestMerge(t *testing.T) {
	a := Snapshot{Counters: map[string]uint64{"x": 1, "shared": 5}}
	b := Snapshot{Counters: map[string]uint64{"y": 2, "shared": 9}}
	m := a.Merge(b)
	if m.Counters["x"] != 1 || m.Counters["y"] != 2 || m.Counters["shared"] != 5 {
		t.Errorf("merge = %v", m.Counters)
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run
// under -race this is the data-race regression test for the whole
// package.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Quantile("h").Observe(time.Millisecond)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Quantile("h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
