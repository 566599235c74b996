package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// parkingEstimator parks queries for source 0 until release closes and
// answers every other source at once.
type parkingEstimator struct {
	started chan struct{}
	release chan struct{}
}

func (p parkingEstimator) Name() string { return "idletest" }

func (p parkingEstimator) SingleSource(ctx context.Context, u graph.NodeID, _ []graph.NodeID) (core.Scores, error) {
	if u == 0 {
		p.started <- struct{}{}
		select {
		case <-p.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return core.Scores{u: 1}, nil
}

// TestIdleCollection drives the idle collection with a fake clock and
// fake runtime hooks. A request that leaves the server idle checks at
// most once per idleGCInterval whether a GC cycle has completed since
// the previous check, and collects only if none has; a request that
// finishes while another is in flight does not check at all, and the
// in-flight one checks when it finishes.
func TestIdleCollection(t *testing.T) {
	est := parkingEstimator{started: make(chan struct{}, 1), release: make(chan struct{})}
	engine.Register("idletest", func(context.Context, *graph.Graph, engine.Config) (engine.Estimator, error) {
		return est, nil
	})
	s, err := New(Config{Graph: graph.PaperExample(), Algo: "idletest", Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64 // nanoseconds since the epoch
	clock.Store(time.Unix(1700000000, 0).UnixNano())
	s.now = func() time.Time { return time.Unix(0, clock.Load()) }
	var cycles, collections atomic.Uint64
	cycles.Store(5)
	s.gc.readCycles = cycles.Load
	s.gc.collect = func() { collections.Add(1) }
	advance := func(d time.Duration) { clock.Add(int64(d)) }
	query := func(path string) {
		t.Helper()
		if rec, body := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %v", path, rec.Code, body)
		}
	}
	want := func(step string, n uint64) {
		t.Helper()
		if got := collections.Load(); got != n {
			t.Fatalf("%s: %d collections, want %d", step, got, n)
		}
	}

	query("/singlesource?u=1") // first check: records 5 cycles
	want("first check", 0)
	advance(idleGCInterval)
	query("/singlesource?u=1")
	want("idle, no cycle since the previous check", 1)
	advance(idleGCInterval / 2)
	query("/singlesource?u=1")
	want("within the interval of the previous check", 1)
	advance(idleGCInterval)
	cycles.Add(1)
	query("/singlesource?u=1")
	want("a cycle ran since the previous check", 1)

	advance(idleGCInterval)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/singlesource?u=0", nil))
	}()
	<-est.started
	query("/singlesource?u=1")
	want("another request in flight", 1)
	close(est.release)
	wg.Wait()
	want("the in-flight request finishing idle", 2)
}
