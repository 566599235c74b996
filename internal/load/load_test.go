package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crashsim/internal/graph"
)

func pool(n int) []graph.NodeID {
	p := make([]graph.NodeID, n)
	for i := range p {
		p[i] = graph.NodeID(i)
	}
	return p
}

// countingHandler answers 200 to every request and counts methods.
type countingHandler struct {
	gets, posts atomic.Uint64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		h.posts.Add(1)
	} else {
		h.gets.Add(1)
	}
	w.WriteHeader(http.StatusOK)
}

func TestRunCountsAndAccounting(t *testing.T) {
	h := &countingHandler{}
	srv := httptest.NewServer(h)
	defer srv.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		QPS:      400,
		Duration: 250 * time.Millisecond,
		Pool:     pool(50),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 100 {
		t.Fatalf("offered %d, want 400qps*0.25s = 100", res.Offered)
	}
	if res.Completed != res.Offered || res.OK != res.Offered {
		t.Fatalf("completed %d ok %d, want all %d", res.Completed, res.OK, res.Offered)
	}
	if res.Shed != 0 || res.Errors != 0 || res.ShedRate != 0 {
		t.Fatalf("unexpected shed/errors: %+v", res)
	}
	if got := res.Latency.Count; got != uint64(res.Completed) {
		t.Fatalf("latency histogram holds %d samples, want %d", got, res.Completed)
	}
	if got := res.Service.Count; got != uint64(res.Completed) {
		t.Fatalf("service histogram holds %d samples, want %d", got, res.Completed)
	}
	total := 0
	for _, n := range res.ByKind {
		total += n
	}
	if total != res.Offered {
		t.Fatalf("ByKind sums to %d, want %d (%v)", total, res.Offered, res.ByKind)
	}
	if res.AchievedQPS <= 0 {
		t.Fatalf("achieved qps %v", res.AchievedQPS)
	}
	if int(h.gets.Load())+int(h.posts.Load()) != res.Offered {
		t.Fatalf("server saw %d+%d requests, want %d", h.gets.Load(), h.posts.Load(), res.Offered)
	}
}

func TestScheduleDeterministicAndMonotone(t *testing.T) {
	cfg := Config{
		BaseURL:  "http://unused",
		QPS:      1000,
		Duration: time.Second,
		Poisson:  true,
		Mix:      Mix{Single: 0.5, TopK: 0.3, Batch: 0.2},
		Pool:     pool(100),
		Seed:     42,
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	a, err := buildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	last := time.Duration(-1)
	for _, off := range a.offsets {
		if off < last {
			t.Fatalf("arrival offsets not monotone: %v after %v", off, last)
		}
		last = off
	}
	// All three kinds must appear with these weights over 1000 draws,
	// and every kind's source slice must be sized for it.
	seen := map[Kind]int{}
	for i, k := range a.kinds {
		seen[k]++
		width := a.srcAt[i+1] - a.srcAt[i]
		switch k {
		case KindSingle, KindTopK:
			if width != 1 {
				t.Fatalf("request %d (%v) draws %d sources", i, k, width)
			}
		case KindBatch:
			if width != cfg.BatchSize {
				t.Fatalf("batch request %d draws %d sources, want %d", i, width, cfg.BatchSize)
			}
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if seen[k] == 0 {
			t.Fatalf("kind %v never drawn in 1000 requests: %v", k, seen)
		}
	}
	// Different seed, different schedule.
	cfg2 := cfg
	cfg2.Seed = 43
	c, err := buildSchedule(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.offsets, c.offsets) {
		t.Fatal("different seeds produced identical Poisson arrivals")
	}
}

// TestScheduledSendCharging is the coordinated-omission regression: a
// slow server behind a 2-request client window must show queueing
// delay in the scheduled-send latency while per-request service time
// stays near the handler's sleep.
func TestScheduledSendCharging(t *testing.T) {
	const handlerDelay = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(handlerDelay)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	// 200 QPS offered, but MaxInFlight 2 and 20ms service caps
	// throughput at ~100 QPS: the backlog grows for the whole run.
	res, err := Run(context.Background(), Config{
		BaseURL:     srv.URL,
		QPS:         200,
		Duration:    300 * time.Millisecond,
		Pool:        pool(10),
		Mix:         Mix{Single: 1},
		Seed:        3,
		MaxInFlight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != res.Offered {
		t.Fatalf("ok %d of %d", res.OK, res.Offered)
	}
	svcP50 := time.Duration(res.Service.P50 * float64(time.Second))
	latP90 := time.Duration(res.Latency.P90 * float64(time.Second))
	if svcP50 < handlerDelay {
		t.Fatalf("service p50 %v below handler delay %v", svcP50, handlerDelay)
	}
	if svcP50 > 5*handlerDelay {
		t.Fatalf("service p50 %v implausibly high for a %v handler", svcP50, handlerDelay)
	}
	// Half the offered load can't be served: by the end of the 300ms
	// window the backlog is ~30 requests deep, so the p90
	// scheduled-send latency must dwarf the service time. A closed-loop
	// client would report ~20ms here and hide the overload entirely.
	if latP90 < 4*svcP50 {
		t.Fatalf("scheduled-send p90 %v does not show queueing over service p50 %v", latP90, svcP50)
	}
}

// TestShedAndErrorClassification: 2xx is OK, 429 is shed, and a 404
// from a read endpoint is an error with a sample.
func TestShedAndErrorClassification(t *testing.T) {
	var n atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 0:
			w.WriteHeader(http.StatusTooManyRequests)
		case 1:
			http.NotFound(w, r)
		default:
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer srv.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		QPS:      400,
		Duration: 200 * time.Millisecond,
		Pool:     pool(10),
		Mix:      Mix{Single: 1},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 || res.Errors == 0 || res.OK == 0 {
		t.Fatalf("expected all classes populated: %+v", res)
	}
	if res.OK+res.Shed+res.Errors != res.Completed {
		t.Fatalf("classes don't sum: %+v", res)
	}
	if res.ShedRate <= 0 || res.ShedRate >= 1 {
		t.Fatalf("shed rate %v", res.ShedRate)
	}
	if len(res.ErrorSamples) == 0 || !strings.Contains(res.ErrorSamples[0], "GET /singlesource: status 404") {
		t.Fatalf("error samples %q, want a 404 from GET /singlesource", res.ErrorSamples)
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{},
		{BaseURL: "x", QPS: 0, Duration: time.Second, Pool: pool(1)},
		{BaseURL: "x", QPS: 10, Duration: 0, Pool: pool(1)},
		{BaseURL: "x", QPS: 10, Duration: time.Second},
		{BaseURL: "x", QPS: 10, Duration: time.Second, Pool: pool(1), Mix: Mix{Single: -1}},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRunCanceled(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{
		BaseURL: srv.URL, QPS: 10, Duration: 10 * time.Second, Pool: pool(4), Seed: 1,
	}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
