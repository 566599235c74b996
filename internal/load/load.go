// Package load is an open-loop HTTP load generator for the SimRank
// server: it fires requests at a configured arrival rate regardless of
// how fast the server answers, which is the property that makes its
// latency percentiles honest under overload.
//
// Closed-loop clients (a fixed worker pool issuing the next request
// when the previous one returns — every `-benchtime` loop, wrk without
// rate limiting, ab) self-throttle: when the server slows down, the
// client offers less load, queueing delay never appears in the sample,
// and the measured "p99" of a saturated server looks almost flat. The
// literature calls this coordinated omission. This generator avoids it
// twice over:
//
//   - Arrivals are scheduled from a precomputed timetable (Poisson or
//     fixed-rate) derived only from the seed and the target QPS; a slow
//     response never delays the next arrival (each request runs in its
//     own goroutine).
//   - Every request's latency is measured from its *scheduled* send
//     time, not the moment the client actually managed to send it, so
//     any backlog the client itself accumulates is charged to the
//     requests that waited in it.
//
// The request stream mirrors a skewed production query log: sources
// are drawn rank-Zipf from a popularity-ordered pool (gen.ZipfSources)
// and the single/topk/batch request mix is configurable.
//
// Latencies are recorded into sharded obs.QuantileHistograms (one
// shard per worker stripe, merged at the end), yielding
// p50/p90/p99/p999 and the exact max with bounded relative error.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
	"crashsim/internal/rng"
)

// Kind is one request type in the workload mix.
type Kind uint8

const (
	KindSingle Kind = iota // GET /singlesource
	KindTopK               // GET /topk
	KindBatch              // POST /batch/singlesource
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindSingle:
		return "single"
	case KindTopK:
		return "topk"
	case KindBatch:
		return "batch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Mix weighs the request kinds; weights are relative (they need not
// sum to 1) and non-negative, with at least one positive.
type Mix struct {
	Single float64
	TopK   float64
	Batch  float64
}

// DefaultMix is a read-mostly serving workload: scalar single-source
// queries with some top-k and an occasional batch.
func DefaultMix() Mix { return Mix{Single: 0.70, TopK: 0.15, Batch: 0.15} }

func (m Mix) weights() [numKinds]float64 {
	return [numKinds]float64{m.Single, m.TopK, m.Batch}
}

func (m Mix) validate() error {
	total := 0.0
	for _, w := range m.weights() {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("load: mix weights must be finite and >= 0, got %+v", m)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("load: mix needs at least one positive weight")
	}
	return nil
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// QPS is the open-loop target arrival rate (> 0).
	QPS float64
	// Duration is how long arrivals are scheduled for (> 0). The run
	// waits for in-flight requests after the last arrival.
	Duration time.Duration
	// Poisson selects exponentially distributed inter-arrival gaps
	// (a memoryless arrival process, the standard open-loop model);
	// false means a fixed 1/QPS gap.
	Poisson bool
	// Mix weighs the request kinds. Zero value means DefaultMix.
	Mix Mix
	// K is the result length requested per query. Default 10.
	K int
	// BatchSize is the sources-per-request of KindBatch. Default 16.
	BatchSize int
	// Pool is the popularity-ordered source pool; Zipf rank 1 is
	// Pool[0]. Required.
	Pool []graph.NodeID
	// ZipfS is the rank-Zipf skew of source popularity (0 = uniform).
	// Default 1.1.
	ZipfS float64
	// Seed fixes the schedule: arrival times, kinds and sources are
	// all derived from it, so two runs against the same server offer
	// byte-identical request streams.
	Seed uint64
	// MaxInFlight caps client-side concurrent requests as a memory
	// backstop. When the cap is hit the dispatcher blocks — arrivals
	// are sent late but stay charged from their scheduled time, so the
	// backlog shows up in the latency percentiles instead of being
	// silently dropped. Default 4096.
	MaxInFlight int
	// Client overrides the HTTP client (default: a transport tuned
	// for many concurrent loopback connections, 60s timeout).
	Client *http.Client
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("load: BaseURL required")
	}
	if !(c.QPS > 0) {
		return c, fmt.Errorf("load: QPS must be > 0, got %g", c.QPS)
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("load: Duration must be > 0, got %v", c.Duration)
	}
	if len(c.Pool) == 0 {
		return c, fmt.Errorf("load: source Pool required")
	}
	if c.Mix == (Mix{}) {
		c.Mix = DefaultMix()
	}
	if err := c.Mix.validate(); err != nil {
		return c, err
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.BatchSize < 1 || c.K < 1 {
		return c, fmt.Errorf("load: K and BatchSize must be >= 1")
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4096
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        1024,
				MaxIdleConnsPerHost: 1024,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return c, nil
}

// Result summarizes one run.
type Result struct {
	TargetQPS float64 `json:"target_qps"`
	// AchievedQPS counts completed responses (any status) per second
	// of wall time from the first scheduled arrival to the last
	// completion.
	AchievedQPS float64 `json:"achieved_qps"`
	// Offered is the number of scheduled arrivals; Completed the
	// number that got an HTTP response (or a transport error).
	Offered   int `json:"offered"`
	Completed int `json:"completed"`
	// OK counts 2xx responses, Shed 429s (admission control doing its
	// job), Errors everything else including transport failures.
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	Errors   int     `json:"errors"`
	ShedRate float64 `json:"shed_rate"`
	// Latency is measured from each request's scheduled arrival time
	// to its completion — queueing delay included, the
	// coordinated-omission-free number. Service is measured from the
	// moment the request was actually sent; the gap between the two
	// is the backlog delay a closed-loop client would have hidden.
	Latency obs.QuantileSnapshot `json:"latency"`
	Service obs.QuantileSnapshot `json:"service"`
	// ByKind counts offered requests per kind name.
	ByKind map[string]int `json:"by_kind"`
	// ErrorSamples holds the first few non-2xx/non-429 observations.
	ErrorSamples []string      `json:"error_samples,omitempty"`
	Elapsed      time.Duration `json:"elapsed_ns"`
}

// schedule is the precomputed open-loop request timetable.
type schedule struct {
	offsets []time.Duration // arrival time of request i, relative to start
	kinds   []Kind
	srcAt   []int          // request i draws sources[srcAt[i]:srcAt[i+1]]
	sources []graph.NodeID // rank-Zipf stream, shared by all kinds
}

// buildSchedule derives the full deterministic timetable from the
// seed: arrival offsets (Poisson or fixed), kinds (mix-weighted), and
// the Zipf source stream, sliced per request.
func buildSchedule(cfg Config) (*schedule, error) {
	total := int(cfg.QPS * cfg.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	s := &schedule{
		offsets: make([]time.Duration, total),
		kinds:   make([]Kind, total),
		srcAt:   make([]int, total+1),
	}
	r := rng.New(rng.SeedString(fmt.Sprintf("load/schedule/%d", cfg.Seed)))
	gap := 1 / cfg.QPS
	elapsed := 0.0
	for i := range s.offsets {
		if cfg.Poisson {
			// Inverse-CDF exponential gap; 1-U keeps the argument
			// strictly positive.
			elapsed += -math.Log(1-r.Float64()) * gap
		} else {
			elapsed = float64(i) * gap
		}
		s.offsets[i] = time.Duration(elapsed * float64(time.Second))
	}
	w := cfg.Mix.weights()
	var cum [numKinds]float64
	acc := 0.0
	for i, wi := range w {
		acc += wi
		cum[i] = acc
	}
	nSources := 0
	for i := range s.kinds {
		x := r.Float64() * acc
		k := Kind(0)
		for x > cum[k] && int(k) < int(numKinds)-1 {
			k++
		}
		s.kinds[i] = k
		s.srcAt[i] = nSources
		switch k {
		case KindSingle, KindTopK:
			nSources++
		case KindBatch:
			nSources += cfg.BatchSize
		}
	}
	s.srcAt[total] = nSources
	var err error
	s.sources, err = gen.ZipfSources(cfg.Pool, nSources, cfg.ZipfS,
		rng.SeedString(fmt.Sprintf("load/sources/%d", cfg.Seed)))
	if err != nil {
		return nil, err
	}
	return s, nil
}

// latShards stripes latency recording across histograms to spread
// atomic contention; Merge folds them afterwards (and doubles as a
// live exercise of the histogram's merge contract).
const latShards = 8

// Run executes the configured open-loop run. It returns when every
// scheduled arrival has completed, or with
// ctx's error if canceled mid-run (in-flight requests are abandoned
// to the HTTP client's timeout).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sched, err := buildSchedule(cfg)
	if err != nil {
		return nil, err
	}

	var (
		latHists                  [latShards]obs.QuantileHistogram
		svcHists                  [latShards]obs.QuantileHistogram
		ok, shed, errs, completed atomic.Uint64
		mu                        sync.Mutex
		samples                   []string
	)
	recordError := func(desc string) {
		errs.Add(1)
		mu.Lock()
		if len(samples) < 5 {
			samples = append(samples, desc)
		}
		mu.Unlock()
	}

	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	byKind := make(map[string]int, int(numKinds))
	for _, k := range sched.kinds {
		byKind[k.String()]++
	}

	start := time.Now()
	for i := range sched.offsets {
		if err := ctx.Err(); err != nil {
			wg.Wait()
			return nil, err
		}
		scheduled := start.Add(sched.offsets[i])
		if d := time.Until(scheduled); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				return nil, ctx.Err()
			}
		}
		// Block when MaxInFlight is reached: the arrival fires late but
		// keeps its scheduled stamp, so the wait is charged to it.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return nil, ctx.Err()
		}
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			status, sent, desc := fire(ctx, cfg, sched, i)
			done := time.Now()
			completed.Add(1)
			// Open-loop accounting: latency is charged from the
			// scheduled arrival, so client-side backlog shows up in the
			// percentiles; service time (actual send → completion)
			// isolates the server's own share.
			latHists[i%latShards].Observe(done.Sub(scheduled))
			svcHists[i%latShards].Observe(done.Sub(sent))
			switch {
			case status >= 200 && status < 300:
				ok.Add(1)
			case status == http.StatusTooManyRequests:
				shed.Add(1)
			default:
				recordError(desc)
			}
		}(i, scheduled)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lat, svc obs.QuantileHistogram
	for i := range latHists {
		lat.Merge(&latHists[i])
		svc.Merge(&svcHists[i])
	}
	res := &Result{
		TargetQPS:    cfg.QPS,
		AchievedQPS:  float64(completed.Load()) / elapsed.Seconds(),
		Offered:      len(sched.offsets),
		Completed:    int(completed.Load()),
		OK:           int(ok.Load()),
		Shed:         int(shed.Load()),
		Errors:       int(errs.Load()),
		Latency:      lat.Snapshot(),
		Service:      svc.Snapshot(),
		ByKind:       byKind,
		ErrorSamples: samples,
		Elapsed:      elapsed,
	}
	if res.Completed > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Completed)
	}
	return res, nil
}

// fire builds and sends request i, returning the HTTP status (0 on
// transport failure), the instant the request was handed to the HTTP
// client, and a short description for error sampling.
func fire(ctx context.Context, cfg Config, s *schedule, i int) (int, time.Time, string) {
	var (
		req *http.Request
		err error
	)
	switch s.kinds[i] {
	case KindSingle:
		u := s.sources[s.srcAt[i]]
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/singlesource?u=%d&k=%d", cfg.BaseURL, u, cfg.K), nil)
	case KindTopK:
		u := s.sources[s.srcAt[i]]
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/topk?u=%d&k=%d", cfg.BaseURL, u, cfg.K), nil)
	case KindBatch:
		body := struct {
			Sources []graph.NodeID `json:"sources"`
			K       int            `json:"k"`
		}{Sources: s.sources[s.srcAt[i]:s.srcAt[i+1]], K: cfg.K}
		buf, merr := json.Marshal(body)
		if merr != nil {
			return 0, time.Now(), fmt.Sprintf("marshal batch: %v", merr)
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			cfg.BaseURL+"/batch/singlesource", bytes.NewReader(buf))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	default:
		return 0, time.Now(), fmt.Sprintf("unknown kind %v", s.kinds[i])
	}
	if err != nil {
		return 0, time.Now(), fmt.Sprintf("build request: %v", err)
	}
	sent := time.Now()
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return 0, sent, fmt.Sprintf("%s %s: %v", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	// Drain so the connection is reusable; the payload itself is not
	// the harness's concern.
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 || resp.StatusCode == http.StatusTooManyRequests {
		return resp.StatusCode, sent, ""
	}
	return resp.StatusCode, sent, fmt.Sprintf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
}
