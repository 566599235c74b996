// Package server exposes SimRank queries over HTTP with a small JSON
// API, turning the library into a queryable service:
//
//	GET  /health              -> {"status":"ok","algo":"crashsim","cache_hit_ratio":0.97}
//	GET  /stats               -> graph statistics
//	GET  /metrics             -> serving metrics (see handleMetrics)
//	GET  /singlesource?u=3&k=10
//	GET  /pair?u=3&v=17
//	GET  /topk?u=3&k=10
//	POST /batch/singlesource  {"sources":[3,17,3],"k":10}
//
// The server owns one immutable graph and one engine.Estimator built at
// construction (index-based backends pay their build exactly once);
// queries are read-only and safe to serve concurrently. All estimator
// parameters are fixed at construction so results are reproducible
// across requests. Every query runs under the request context plus a
// configurable per-request timeout; an aborted estimate returns 503.
//
// The batch endpoint answers many single-source queries in one request
// through engine.MultiSource, which on the crashsim backend runs the
// whole batch through one compile-once, fan-out-once pipeline.
// Responses carry per-item results and per-item errors: an out-of-range
// source fails alone without failing its batch-mates.
//
// Overload protection: the query endpoints run behind a weighted
// admission gate bounding concurrent in-flight work
// (Config.MaxInFlight): a scalar query holds one unit, a batch holds
// one unit per source — admitting a 64-source batch as if it were one
// query would let a single request oversubscribe the whole budget.
// When the budget is exhausted, further queries are rejected
// immediately with 429 and a Retry-After header rather than queued —
// Monte-Carlo estimates are CPU-bound, so queuing past the core count
// only grows latency for everyone. /health, /stats and /metrics stay
// outside the gate so load balancers and dashboards see a saturated
// server, not a dead one.
//
// Result caching: with Config.CacheBytes set, query results are served
// from a sharded LRU (internal/cache) keyed on backend, effective
// parameters and graph version, with singleflight coalescing so a
// thundering herd on one hot node costs a single backend computation.
// Estimates are deterministic for a fixed seed, so a cached result is
// exactly what recomputing would return. Cache occupancy and hit/miss/
// coalesced counters appear on /stats and /metrics, and /health gains
// an allocation-free cache_hit_ratio field.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"time"

	"crashsim/internal/cache"
	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

// DefaultTimeout is the per-request estimation budget when
// Config.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// DefaultMaxInFlight bounds concurrent query estimates when
// Config.MaxInFlight is zero: twice the core count, enough to keep
// every core busy while one batch finishes encoding.
func DefaultMaxInFlight() int { return 2 * runtime.GOMAXPROCS(0) }

// Config fixes the served graph and estimator parameters.
type Config struct {
	Graph *graph.Graph
	// Algo selects the engine backend by name (see engine.Names).
	// Default "crashsim". Index-based backends build their index inside
	// New.
	Algo string
	// Params carries the estimator parameters shared by every backend
	// (c, ε, δ, iterations, workers, seed).
	Params core.Params
	// DefaultK bounds result lists when the request omits k. Default 10.
	DefaultK int
	// MaxK caps requested result lengths. Default 1000.
	MaxK int
	// Timeout bounds each query's estimation time. Zero means
	// DefaultTimeout; negative disables the per-request deadline (the
	// request context still cancels on client disconnect).
	Timeout time.Duration
	// MaxInFlight bounds concurrent in-flight query weight: a scalar
	// query weighs 1, a batch weighs its source count. Excess requests
	// get 429 with a Retry-After header. Zero means DefaultMaxInFlight;
	// negative disables admission control.
	MaxInFlight int
	// MaxBatch caps the source count of one POST /batch/singlesource
	// request; larger batches get 400. Default 128.
	MaxBatch int
	// CacheBytes bounds the query-result cache's accounted size; zero
	// or negative disables caching. Sizing guidance: a single-source
	// result costs ~48 bytes per non-zero-score node, so 64 MiB holds
	// full results for roughly 1400 hub sources on a 10^6-node graph —
	// usually far more than the hot query set.
	CacheBytes int64
	// CacheTTL bounds every cache entry's age; zero means entries live
	// until evicted or their graph version is superseded. Version-keyed
	// invalidation already prevents stale-graph results, so a TTL is
	// only needed when operators want a hard recency bound as well.
	CacheTTL time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for live
	// CPU/heap/goroutine profiling. Off by default: profiles reveal
	// internals, so only enable on trusted ports.
	EnablePprof bool
	// Metrics receives the server's and its estimator's metrics. Nil
	// means obs.Default, which also carries internal/core's work
	// counters (walks, pool traffic, prune rates) so /metrics shows
	// the whole serving stack in one snapshot.
	Metrics *obs.Registry
	// SlingIndex / ReadsIndex / PRSimIndex optionally hand the matching
	// index-based backend a preloaded index (from an internal/store
	// snapshot) instead of paying the build in New; see engine.Config.
	// Ignored by other backends.
	SlingIndex *sling.Index
	ReadsIndex *reads.Index
	PRSimIndex *prsim.Index
	// HubFraction is the prsim backend's eagerly indexed node fraction
	// (0 = the backend default).
	HubFraction float64
}

// Server is an http.Handler answering SimRank queries.
type Server struct {
	cfg   Config
	est   engine.Estimator
	mux   *http.ServeMux
	start time.Time

	// Result cache (nil when disabled) and the preformatted static
	// part of the /health payload, so the health fast path is a few
	// appends into a pooled buffer rather than a JSON encode.
	qcache       *cache.Cache
	healthPrefix string

	// stats is the graph's statistics, computed exactly once in New —
	// the graph is immutable, so recomputing the O(n+m) sweep per
	// /stats request (as this handler once did) bought nothing and let
	// an un-gated endpoint burn CPU. statsComputed counts the sweeps
	// (it must read 1 forever; a regression test pins it).
	stats         graph.Stats
	statsComputed *obs.Counter

	// Admission gate (nil when disabled) plus its observability.
	gate     *gate
	reg      *obs.Registry
	inflight *obs.Gauge
	served   *obs.Counter
	rejected *obs.Counter
	latency  *obs.Histogram
	// qlatency is the log-bucketed percentile view of the same
	// end-to-end request latency that the fixed-bucket latency
	// histogram records: p50/p90/p99/p999 + exact max with ~3% relative
	// error, served live on /stats and /metrics.
	qlatency *obs.QuantileHistogram
	// now is the clock behind latency accounting; tests substitute a
	// fake to drive known durations through the histograms.
	now func() time.Time
}

// New validates the configuration, builds the selected estimator
// (paying any index construction up front) and returns the handler.
func New(cfg Config) (*Server, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("server: graph must not be nil")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Algo == "" {
		cfg.Algo = "crashsim"
	}
	if cfg.DefaultK == 0 {
		cfg.DefaultK = 10
	}
	if cfg.MaxK == 0 {
		cfg.MaxK = 1000
	}
	if cfg.DefaultK < 1 || cfg.MaxK < cfg.DefaultK {
		return nil, fmt.Errorf("server: bad k bounds (default %d, max %d)", cfg.DefaultK, cfg.MaxK)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight()
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 128
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("server: bad MaxBatch %d", cfg.MaxBatch)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default
	}
	ecfg := engine.Config{
		C: cfg.Params.C, Eps: cfg.Params.Eps, Delta: cfg.Params.Delta,
		Iterations: cfg.Params.Iterations, Workers: cfg.Params.Workers,
		Seed: cfg.Params.Seed, Metrics: cfg.Metrics,
		SlingIndex: cfg.SlingIndex, ReadsIndex: cfg.ReadsIndex,
		PRSimIndex: cfg.PRSimIndex, HubFraction: cfg.HubFraction,
	}
	est, err := engine.New(context.Background(), cfg.Algo, cfg.Graph, ecfg)
	if err != nil {
		return nil, err
	}
	var qc *cache.Cache
	if cfg.CacheBytes > 0 {
		qc, err = cache.New(cache.Config{
			MaxBytes: cfg.CacheBytes,
			TTL:      cfg.CacheTTL,
			Metrics:  cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		est, err = engine.Cached(est, engine.CacheConfig{
			Cache:   qc,
			Version: cfg.Graph.Version,
			Scope:   ecfg.Fingerprint(),
		})
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg: cfg, est: est, mux: http.NewServeMux(), start: time.Now(),
		qcache:        qc,
		reg:           cfg.Metrics,
		inflight:      cfg.Metrics.Gauge("server.inflight"),
		served:        cfg.Metrics.Counter("server.queries"),
		rejected:      cfg.Metrics.Counter("server.rejected"),
		latency:       cfg.Metrics.Histogram("server.latency"),
		qlatency:      cfg.Metrics.Quantile("server.latency"),
		statsComputed: cfg.Metrics.Counter("server.stats_computed"),
		now:           time.Now,
	}
	s.stats = graph.ComputeStats(cfg.Graph)
	s.statsComputed.Inc()
	s.healthPrefix = `{"status":"ok","algo":"` + est.Name() + `"`
	if cfg.MaxInFlight > 0 {
		s.gate = &gate{max: cfg.MaxInFlight}
	}
	s.mux.HandleFunc("GET /health", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /singlesource", s.admit(s.handleSingleSource))
	s.mux.HandleFunc("GET /pair", s.admit(s.handlePair))
	s.mux.HandleFunc("GET /topk", s.admit(s.handleTopK))
	s.mux.HandleFunc("POST /batch/singlesource", s.handleBatch)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// gate is the weighted admission gate: every in-flight request holds
// weight units of the MaxInFlight budget (1 for the scalar query
// endpoints, the source count for a batch). A request is admitted when
// it fits the remaining budget — or when the server is idle, so one
// batch heavier than the entire budget still runs (alone) instead of
// being permanently unservable.
type gate struct {
	mu  sync.Mutex
	max int
	cur int
}

func (g *gate) tryAcquire(w int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur > 0 && g.cur+w > g.max {
		return false
	}
	g.cur += w
	return true
}

func (g *gate) release(w int) {
	g.mu.Lock()
	g.cur -= w
	g.mu.Unlock()
}

// acquire reserves weight units of the admission budget, answering 429
// with a Retry-After header when the server is saturated. Served and
// rejected counters account by weight, matching what admission charges:
// a weight-N batch moves both the budget and the counters by N, so
// served + rejected is the total query volume whether clients batch or
// not (a weight-1-per-batch accounting would make the counters
// unreconcilable with the inflight gauge and undercount batched load).
// On success it also moves the weighted inflight gauge; callers must
// pair it with release.
func (s *Server) acquire(w http.ResponseWriter, weight int) bool {
	if s.gate != nil && !s.gate.tryAcquire(weight) {
		s.rejected.Add(uint64(weight))
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			"server saturated: weighted in-flight budget %d exhausted; retry shortly", s.gate.max)
		return false
	}
	s.served.Add(uint64(weight))
	s.inflight.Add(int64(weight))
	return true
}

func (s *Server) release(weight int) {
	s.inflight.Add(-int64(weight))
	if s.gate != nil {
		s.gate.release(weight)
	}
}

// admit is the admission-control middleware around the scalar query
// endpoints: it reserves one in-flight unit (or rejects with 429 when
// the server is saturated) and records the end-to-end request latency
// — parsing, estimation and JSON encoding — in server.latency, the
// client's-eye complement of the engine's estimation-only histograms.
// The batch endpoint runs the same machinery with its own weight (see
// handleBatch).
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.acquire(w, 1) {
			return
		}
		defer s.release(1)
		start := s.now()
		h(w, r)
		s.observeLatency(s.now().Sub(start))
	}
}

// observeLatency records one end-to-end request latency into both
// views: the fixed-bucket histogram (bucket counts on /metrics) and
// the quantile histogram (live percentiles on /stats and /metrics).
func (s *Server) observeLatency(d time.Duration) {
	s.latency.Observe(d)
	s.qlatency.Observe(d)
}

// Algo returns the name of the backend serving queries.
func (s *Server) Algo() string { return s.est.Name() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// queryCtx derives the estimation context for one request: the request
// context (canceled on client disconnect) plus the configured deadline.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.Timeout)
	}
	return r.Context(), func() {}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeQueryErr maps an estimation failure to a status: deadline or
// client cancellation is 503 (the query was aborted, not invalid),
// anything else is 500.
func writeQueryErr(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeErr(w, http.StatusServiceUnavailable, "query aborted: %v", err)
		return
	}
	writeErr(w, http.StatusInternalServerError, "%v", err)
}

// healthBufPool recycles /health payload buffers. Pointer-to-slice so
// Put does not allocate a new interface box per request.
var healthBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 128)
	return &b
}}

// healthBody appends the /health payload to buf: the preformatted
// status/algo prefix plus, when caching is enabled, the live cache hit
// ratio. The ratio is two atomic loads and the append path never grows
// a pooled buffer past its initial capacity, so this function is
// allocation-free — TestHealthBodyAllocationFree and
// BenchmarkHealthBody in this package enforce it, which is the
// condition for keeping the ratio on the health fast path at all.
func (s *Server) healthBody(buf []byte) []byte {
	buf = append(buf, s.healthPrefix...)
	if s.qcache != nil {
		buf = append(buf, `,"cache_hit_ratio":`...)
		buf = strconv.AppendFloat(buf, s.qcache.HitRatio(), 'f', 4, 64)
	}
	return append(buf, '}', '\n')
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	bp := healthBufPool.Get().(*[]byte)
	buf := s.healthBody((*bp)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	*bp = buf
	healthBufPool.Put(bp)
}

// handleStats serves the statistics computed once in New — the graph
// is immutable, so no request ever re-walks it. The cache and latency
// blocks are live: "latency" carries the log-bucketed percentile view
// of end-to-end request latency (count, mean, p50/p90/p99/p999 in
// seconds, exact max) accumulated since startup.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.stats
	lat := s.qlatency.Snapshot()
	body := map[string]any{
		"latency": map[string]any{
			"count":        lat.Count,
			"mean_seconds": lat.Mean(),
			"p50":          lat.P50,
			"p90":          lat.P90,
			"p99":          lat.P99,
			"p999":         lat.P999,
			"max":          lat.Max,
		},
		"nodes":        st.Nodes,
		"edges":        st.Edges,
		"directed":     st.Directed,
		"meanInDeg":    st.MeanInDeg,
		"maxInDeg":     st.MaxInDeg,
		"danglingIn":   st.DanglingIn,
		"danglingOut":  st.DanglingOut,
		"medianInDeg":  st.MedianInDeg,
		"algo":         s.est.Name(),
		"graphVersion": s.cfg.Graph.Version(),
	}
	if s.qcache != nil {
		body["cache"] = s.qcache.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics serves a JSON snapshot of the serving metrics:
//
//	{
//	  "algo": "crashsim",
//	  "uptime_seconds": 12.3,
//	  "max_inflight": 16,
//	  "counters":   {"server.queries": 42, "engine.crashsim.queries": 42, "core.walks": 1234567, ...},
//
// server.queries and server.rejected count admitted (resp. rejected)
// query weight, not HTTP requests: a scalar query adds 1, an N-source
// batch adds N — the same units the admission gate charges, so
// served + rejected reconciles with total query volume regardless of
// batching. server.stats_computed counts graph-statistics sweeps and
// stays at 1 for the server's lifetime (/stats serves a cached
// struct). An example continued:
//
//	  "gauges":     {"server.inflight": 1, ...},
//	  "histograms": {"engine.crashsim.latency": {"count": 42, "sum_seconds": 1.9,
//	                  "buckets": [{"le": 0.0001, "count": 0}, ...], "overflow": 0}, ...},
//	  "quantiles":  {"server.latency": {"count": 42, "sum_seconds": 1.9,
//	                  "p50": 0.012, "p90": 0.031, "p99": 0.084, "p999": 0.21, "max": 0.4}}
//	}
//
// "quantiles" is the log-bucketed percentile view of end-to-end
// request latency (seconds, ~3% relative error, exact max) — the same
// observations as the fixed-bucket server.latency histogram, shaped
// for SLO dashboards instead of bucket math. /stats carries the same
// summary under "latency".
//
// Bucket counts are per-bucket (not cumulative); "overflow" counts
// observations above the last bound. With the default registry the
// snapshot includes internal/core's process-wide work counters
// (core.walks, core.pool.* — including the frozen-tree and revReach
// accumulator pools, core.pool.frozen_* and core.pool.revacc_*, plus
// the incremental-pipeline scratch pools core.pool.patch_* and
// core.pool.temporal_* — core.frozen.compiled, core.prefilter_pruned,
// and the core.temporal.* family, which now covers the incremental
// temporal pipeline: core.temporal.tree_patched / tree_rebuilt track
// the source-tree patch-vs-rebuild decision, core.temporal.frozen_reused
// counts frozen-form carries across stable snapshots, and
// core.temporal.candtree_hits / candtree_misses account the
// candidate-tree cache). The batched multi-source pipeline reports as
// core.batch.batches / sources / dedup_hits / items plus its arena
// pool pair core.pool.batch_hits / batch_misses, and the engine layer
// adds engine.<backend>.queries.multisource per batch.
// With caching enabled the counters include cache.hits, cache.misses,
// cache.coalesced, cache.evictions and cache.expired, the gauges
// cache.bytes and cache.entries, and the top level carries a "cache"
// object with the same occupancy plus configuration.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.reg.Snapshot()
	var cs *cache.Stats
	if s.qcache != nil {
		st := s.qcache.Stats()
		cs = &st
	}
	writeJSON(w, http.StatusOK, struct {
		Algo          string       `json:"algo"`
		UptimeSeconds float64      `json:"uptime_seconds"`
		MaxInFlight   int          `json:"max_inflight"`
		Cache         *cache.Stats `json:"cache,omitempty"`
		obs.Snapshot
	}{
		Algo:          s.est.Name(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		MaxInFlight:   s.cfg.MaxInFlight,
		Cache:         cs,
		Snapshot:      snap,
	})
}

// nodeParam parses a node id query parameter and range-checks it.
func (s *Server) nodeParam(r *http.Request, name string) (graph.NodeID, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", raw)
	}
	if v < 0 || int(v) >= s.cfg.Graph.NumNodes() {
		return 0, fmt.Errorf("node %d out of range [0,%d)", v, s.cfg.Graph.NumNodes())
	}
	return graph.NodeID(v), nil
}

// kParam parses the optional k parameter with defaults and caps.
// Requests above MaxK are clamped rather than rejected — partial
// results beat a 400 for a pagination-style client — but never
// silently: list responses carry the effective "k" field, so a client
// asking for k=5000 and receiving k=1000 can tell the cap from a
// sparse graph.
func (s *Server) kParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return s.cfg.DefaultK, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("bad k %q", raw)
	}
	if k > s.cfg.MaxK {
		k = s.cfg.MaxK
	}
	return k, nil
}

// scoredNode is one JSON result entry.
type scoredNode struct {
	Node  graph.NodeID `json:"node"`
	Score float64      `json:"score"`
}

func (s *Server) handleSingleSource(w http.ResponseWriter, r *http.Request) {
	u, err := s.nodeParam(r, "u")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := s.kParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	scores, err := s.est.SingleSource(ctx, u, nil)
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"source": u, "k": k, "results": scored(core.Top(scores, u, k))})
}

// scored converts a ranking into its JSON result entries.
func scored(top []core.TopKResult) []scoredNode {
	out := make([]scoredNode, len(top))
	for i, r := range top {
		out[i] = scoredNode{Node: r.Node, Score: r.Score}
	}
	return out
}

func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	u, err := s.nodeParam(r, "u")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, err := s.nodeParam(r, "v")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	score, err := engine.Pair(ctx, s.est, u, v)
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"u": u, "v": v, "score": score})
}

// batchRequest is the POST /batch/singlesource body.
type batchRequest struct {
	Sources []int64 `json:"sources"`
	// K bounds each item's result list; 0 means DefaultK, larger than
	// MaxK clamps (the response reports the effective k).
	K int `json:"k"`
}

// batchItem is one per-source entry of the batch response: either a
// ranked result list or this source's own error, never both. Item
// order matches the request's sources order.
type batchItem struct {
	Source  int64        `json:"source"`
	Results []scoredNode `json:"results,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// maxBatchBody bounds the batch request body: generous headroom per
// allowed source (a 19-digit id plus JSON punctuation is under 24
// bytes) plus a fixed allowance for the envelope. Anything larger
// cannot be a valid batch, so it is rejected before the decoder
// buffers it.
func (s *Server) maxBatchBody() int64 {
	return int64(s.cfg.MaxBatch)*32 + 4096
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Bound the body before decoding: MaxBatch alone cannot protect the
	// decoder, which would otherwise buffer an arbitrarily large body
	// just to count its sources.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBatchBody())
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusBadRequest,
				"batch body exceeds %d bytes; split the request", tooLarge.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(req.Sources) == 0 {
		writeErr(w, http.StatusBadRequest, "batch needs a non-empty sources list")
		return
	}
	if len(req.Sources) > s.cfg.MaxBatch {
		writeErr(w, http.StatusBadRequest,
			"batch of %d sources exceeds max %d; split the request", len(req.Sources), s.cfg.MaxBatch)
		return
	}
	k := s.cfg.DefaultK
	if req.K != 0 {
		if req.K < 1 {
			writeErr(w, http.StatusBadRequest, "bad k %d", req.K)
			return
		}
		k = min(req.K, s.cfg.MaxK)
	}

	// One admission reservation for the whole batch, weighted by its
	// source count: N batched sources cost the same budget as N scalar
	// queries, so batching is a latency optimization, not a way around
	// overload protection.
	weight := len(req.Sources)
	if !s.acquire(w, weight) {
		return
	}
	defer s.release(weight)
	start := s.now()
	defer func() { s.observeLatency(s.now().Sub(start)) }()

	// Per-item validation: an out-of-range source gets its own error
	// entry; the valid remainder still runs as one batch.
	n := s.cfg.Graph.NumNodes()
	items := make([]batchItem, len(req.Sources))
	valid := make([]graph.NodeID, 0, len(req.Sources))
	for i, raw := range req.Sources {
		items[i].Source = raw
		if raw < 0 || raw >= int64(n) {
			items[i].Error = fmt.Sprintf("node %d out of range [0,%d)", raw, n)
			continue
		}
		valid = append(valid, graph.NodeID(raw))
	}
	if len(valid) > 0 {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		scores, err := engine.MultiSource(ctx, s.est, valid)
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		j := 0
		for i := range items {
			if items[i].Error != "" {
				continue
			}
			items[i].Results = scored(core.Top(scores[j], graph.NodeID(items[i].Source), k))
			j++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"k": k, "items": items})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	u, err := s.nodeParam(r, "u")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := s.kParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	ranked, err := engine.TopK(ctx, s.est, u, k)
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"source": u, "k": k, "results": scored(ranked)})
}
