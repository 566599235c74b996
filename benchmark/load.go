package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// request is one planned operation: its kind, its sources (one, or
// batchSize for a batch) and, in an open loop, its send time relative
// to the start of the window.
type request struct {
	at      time.Duration
	kind    kind
	sources []graph.NodeID
}

// plan draws n requests from seed: kinds in exact mix proportions
// (largest remainder) in a shuffled order, sources rank-Zipf from pool,
// and send times as n sorted uniform draws over window — a Poisson
// arrival process conditioned on its count, so every run of a workload
// offers the same number of each kind.
func plan(w workload, seed uint64, n int, pool []graph.NodeID, window time.Duration) ([]request, error) {
	if n < 1 || len(pool) == 0 {
		return nil, fmt.Errorf("plan: need n >= 1 and a non-empty pool (n=%d, pool=%d)", n, len(pool))
	}
	r := rng.New(rng.SeedString(fmt.Sprintf("benchmark/%s/plan/%d", w.Name, seed)))
	total := 0.0
	for _, x := range w.Mix {
		total += x
	}
	var counts [numKinds]int
	type frac struct {
		k kind
		f float64
	}
	var fracs []frac
	assigned := 0
	for k, x := range w.Mix {
		exact := x / total * float64(n)
		counts[k] = int(exact)
		assigned += counts[k]
		if x > 0 {
			fracs = append(fracs, frac{kind(k), exact - math.Floor(exact)})
		}
	}
	slices.SortStableFunc(fracs, func(a, b frac) int { return cmp.Compare(b.f, a.f) })
	for i := 0; assigned < n; i++ {
		counts[fracs[i%len(fracs)].k]++
		assigned++
	}

	reqs := make([]request, 0, n)
	nSources := 0
	for k, c := range counts {
		for range c {
			reqs = append(reqs, request{kind: kind(k)})
		}
		if kind(k) == kindBatch {
			nSources += c * batchSize
		} else {
			nSources += c
		}
	}
	for i := len(reqs) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	sources, err := gen.ZipfSources(pool, nSources, w.ZipfS,
		rng.SeedString(fmt.Sprintf("benchmark/%s/sources/%d", w.Name, seed)))
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		m := 1
		if reqs[i].kind == kindBatch {
			m = batchSize
		}
		reqs[i].sources, sources = sources[:m:m], sources[m:]
	}
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Float64() * float64(window))
	}
	slices.Sort(at)
	for i := range reqs {
		reqs[i].at = at[i]
	}
	return reqs, nil
}

// outcome is what happened to one sent request.
type outcome struct {
	id     int64
	kind   kind
	status int           // HTTP status; 0 for a transport failure
	lat    time.Duration // scheduled send to completion
	lag    time.Duration // actual send minus scheduled send
	err    string
}

func (o outcome) served() bool { return o.status >= 200 && o.status < 300 }
func (o outcome) shed() bool   { return o.status == http.StatusTooManyRequests }

// sendFunc performs request r with id and returns its status.
type sendFunc func(ctx context.Context, id int64, r request) (int, error)

// openLoop sends every request at its planned time, whatever the state
// of earlier ones, and charges each latency from that planned time. It
// returns once every request has completed, with the wall time from
// the start of the window to the last completion and the largest
// number of requests in flight at once.
func openLoop(ctx context.Context, reqs []request, send sendFunc) ([]outcome, time.Duration, int64) {
	out := make([]outcome, len(reqs))
	var (
		wg                    sync.WaitGroup
		inflight, inflightMax atomic.Int64
	)
	start := time.Now()
	for i, r := range reqs {
		sched := start.Add(r.at)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		if n := inflight.Add(1); n > inflightMax.Load() {
			inflightMax.Store(n) // only this goroutine raises it
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			sent := time.Now()
			status, err := send(ctx, int64(i), r)
			out[i] = outcome{id: int64(i), kind: r.kind, status: status,
				lat: time.Since(sched), lag: sent.Sub(sched), err: errString(err)}
		}()
	}
	wg.Wait()
	return out, time.Since(start), inflightMax.Load()
}

// closedLoop runs clients goroutines that each send their next request
// as soon as the previous one returns, cycling through reqs. It stops
// sending once window has passed and every kind in reqs has at least
// minSamples served requests (so each median meets its sample floor), or
// at 4×window regardless. Latency is charged from the send.
func closedLoop(ctx context.Context, reqs []request, clients int, window time.Duration, send sendFunc) ([]outcome, time.Duration) {
	need := map[kind]int{}
	for _, r := range reqs {
		need[r.kind] = minSamples
	}
	var (
		mu   sync.Mutex
		out  []outcome
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	done := func() bool {
		el := time.Since(start)
		if el >= 4*window {
			return true
		}
		if el < window {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		for _, n := range need {
			if n > 0 {
				return false
			}
		}
		return true
	}
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done() && ctx.Err() == nil {
				id := next.Add(1) - 1
				r := reqs[int(id)%len(reqs)]
				sent := time.Now()
				status, err := send(ctx, id, r)
				o := outcome{id: id, kind: r.kind, status: status, lat: time.Since(sent), err: errString(err)}
				mu.Lock()
				out = append(out, o)
				if o.served() {
					need[r.kind]--
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	slices.SortFunc(out, func(a, b outcome) int { return cmp.Compare(a.id, b.id) })
	return out, time.Since(start)
}

// minSamples is the served count per kind that gives a median its
// sample floor, plus a margin.
const minSamples = 2*minBeyond + 4

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// requestIDHeader carries the plan index of a request, so a traced
// server can attribute its spans to the client-side latency.
const requestIDHeader = "X-Bench-Request"

// client speaks h2c (HTTP/2 without TLS) to the server under test and
// counts the TCP connections it dials.
type client struct {
	base  string
	tr    *http.Transport
	http  *http.Client
	dials atomic.Int64
}

func newClient(base string) *client {
	c := &client{base: base}
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	var d net.Dialer
	c.tr = &http.Transport{
		Protocols: &p,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	c.http = &http.Client{Transport: c.tr, Timeout: 2 * time.Minute}
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get fetches path and decodes a JSON body into v (when non-nil).
func (c *client) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	var body bytes.Buffer
	status, err := c.do(req, &body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body.Bytes())
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body.Bytes(), v)
}

// send issues r as an HTTP request and discards the body.
func (c *client) send(ctx context.Context, id int64, r request) (int, error) {
	return c.sendTo(ctx, id, r, io.Discard)
}

// sendTo issues r and copies the response body to body.
func (c *client) sendTo(ctx context.Context, id int64, r request, body io.Writer) (int, error) {
	var (
		req *http.Request
		err error
	)
	switch r.kind {
	case kindTopK:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/topk?u=%d&k=%d", c.base, r.sources[0], topK), nil)
	case kindSingle:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/singlesource?u=%d&k=%d", c.base, r.sources[0], topK), nil)
	case kindBatch:
		buf, merr := json.Marshal(struct {
			Sources []graph.NodeID `json:"sources"`
			K       int            `json:"k"`
		}{r.sources, topK})
		if merr != nil {
			return 0, merr
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/batch/singlesource", bytes.NewReader(buf))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	default:
		return 0, fmt.Errorf("kind %v is not an HTTP request", r.kind)
	}
	if err != nil {
		return 0, err
	}
	req.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
	return c.do(req, body)
}

func (c *client) do(req *http.Request, body io.Writer) (int, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(body, resp.Body); err != nil {
		return 0, fmt.Errorf("%s %s: reading body: %w", req.Method, req.URL.Path, err)
	}
	if resp.ProtoMajor != 2 {
		return 0, fmt.Errorf("%s %s: served over %s, want HTTP/2", req.Method, req.URL.Path, resp.Proto)
	}
	return resp.StatusCode, nil
}

// kindStats summarizes one kind's outcomes.
type kindStats struct {
	offered, served, shed, errors int
	lat                           []time.Duration // served requests only
}

// summarize splits outcomes by kind.
func summarize(out []outcome) [numKinds]kindStats {
	var s [numKinds]kindStats
	for _, o := range out {
		ks := &s[o.kind]
		ks.offered++
		switch {
		case o.served():
			ks.served++
			ks.lat = append(ks.lat, o.lat)
		case o.shed():
			ks.shed++
		default:
			ks.errors++
		}
	}
	return s
}
