package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crashsim/internal/cache"
	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/metrics"
	"crashsim/internal/obs"
	"crashsim/internal/prsim"
	"crashsim/internal/server"
	"crashsim/internal/store"
)

// loaded is a serving workload's input, read back from its files.
type loaded struct {
	g  *graph.Graph
	mp *store.Mapped
	ix *prsim.Index
	// Step timings of the load.
	graphLoad, open, imp time.Duration
}

// load reads the input the way a server process starts: an edge list,
// or a mapped snapshot plus its PRSim index.
func load(w workload, dir string) (*loaded, error) {
	l := &loaded{}
	if !w.Index {
		t0 := time.Now()
		f, err := os.Open(filepath.Join(dir, graphFile))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if l.g, err = graph.ReadEdgeList(bufio.NewReader(f)); err != nil {
			return nil, err
		}
		l.graphLoad = time.Since(t0)
		return l, nil
	}
	t0 := time.Now()
	mp, err := store.OpenMapped(filepath.Join(dir, indexFile), store.MapOptions{})
	if err != nil {
		return nil, err
	}
	l.open = time.Since(t0)
	l.mp, l.g = mp, mp.Graph()
	t1 := time.Now()
	if l.ix, err = mp.ImportPRSim(l.g); err != nil {
		mp.Close()
		return nil, err
	}
	l.imp = time.Since(t1)
	return l, nil
}

func (l *loaded) close() {
	if l.ix != nil {
		l.ix.Close()
	}
	if l.mp != nil {
		l.mp.Close()
	}
}

func newServer(w workload, l *loaded, p core.Params, algo string) (*server.Server, error) {
	return server.New(server.Config{
		Graph: l.g, Algo: algo, Params: p, MaxInFlight: maxInFlight,
		CacheBytes: w.CacheBytes, PRSimIndex: l.ix,
	})
}

// runServing is the serving child: it starts the program from the
// input files, offers the workload's load for one window and checks
// the answers. With traced set the backend is the traced one and the
// server sits behind the span middleware.
func runServing(ctx context.Context, rc runConfig, res *childResult, traced bool) error {
	w := rc.Workload
	l, err := load(w, rc.Dir)
	if err != nil {
		return err
	}
	defer l.close()
	p := w.params(l.g.NumNodes(), rc.Seed)
	algo := w.Algo
	var tr *tracer
	if traced {
		tr = newTracer()
		registerTraced(tr)
		algo += traceSuffix
	}
	srv, err := newServer(w, l, p, algo)
	if err != nil {
		return err
	}
	var handler http.Handler = srv
	if traced {
		handler = tr.middleware(srv)
	}

	// h2c on both sides: all requests multiplex over one connection, and
	// the server still sees every concurrent request.
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler, Protocols: &protos}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newClient("http://" + ln.Addr().String())
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close()
		}
		<-served
		c.close()
	}()
	if err := c.get(ctx, "/health", nil); err != nil {
		return fmt.Errorf("opening the connection: %w", err)
	}

	pool := sourcePool(w, l.g)
	for _, u := range pool[:w.HotSet] {
		for _, path := range []string{"/singlesource", "/topk"} {
			if err := c.get(ctx, fmt.Sprintf("%s?u=%d&k=%d", path, u, topK), nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if traced {
		tr.wait()
		tr.reset()
	}

	n := closedPlanSize
	if w.Rate > 0 {
		n = int(math.Round(w.Rate * rc.Window.Seconds()))
	}
	reqs, err := plan(w, rc.Seed, n, pool, rc.Window)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := obs.Default.Snapshot()
	rssWindow := sampleRSS()
	var (
		out         []outcome
		elapsed     time.Duration
		inflightMax int64
	)
	if w.Rate > 0 {
		out, elapsed, inflightMax = openLoop(ctx, reqs, c.send)
	} else {
		out, elapsed = closedLoop(ctx, reqs, nproc(), rc.Window, c.send)
		inflightMax = int64(nproc())
	}
	if traced {
		tr.wait()
	}
	delta := obs.Default.Snapshot().Delta(before)
	runtime.ReadMemStats(&m1)
	if err := memoryMetrics(res, rssWindow); err != nil {
		return err
	}

	mt := res.Metrics
	stats := summarize(out)
	endToEndMetrics(w, res, out, stats, elapsed)
	var lagMax time.Duration
	for _, o := range out {
		lagMax = max(lagMax, o.lag)
	}
	mt["load.lag_ms_max"] = ms(lagMax)
	mt["load.conns"] = float64(c.dials.Load())
	mt["load.inflight_max"] = float64(inflightMax)
	if dials := c.dials.Load(); dials > int64(nproc()) {
		res.fail("load generator dialed %d connections, more than nproc=%d", dials, nproc())
	}
	counterMetrics(mt, delta, w.Algo, float64(delta.Counters["engine."+algo+".queries"]))
	runtimeMetrics(mt, &m0, &m1, len(out))
	res.note("%s: %d requests over %v (%s), %d connection(s), inflight max %d, lag max %.2fms",
		w.Name, len(out), elapsed.Round(time.Millisecond), loadShape(w), c.dials.Load(), inflightMax, ms(lagMax))

	// Traced metrics come first so the replay's spans stay out of them.
	if traced {
		if err := tracedMetrics(ctx, w, rc, l, p, tr, out, pool, res); err != nil {
			return err
		}
	}
	return replay(ctx, w, rc, l, p, c, reqs, res)
}

// closedPlanSize is the request plan a closed loop cycles through.
const closedPlanSize = 4096

func loadShape(w workload) string {
	if w.Rate > 0 {
		return fmt.Sprintf("open loop %g/s", w.Rate)
	}
	return fmt.Sprintf("closed loop, %d clients", nproc())
}

// replayPerKind is how many planned requests of each kind are replayed
// against the reference after the window.
const replayPerKind = 4

// replay sends the first requests of each kind in the plan again and
// requires node ids and score bits equal to a direct, uncached engine
// over the same input.
func replay(ctx context.Context, w workload, rc runConfig, l *loaded, p core.Params, c *client, reqs []request, res *childResult) error {
	ref, closeRef, err := referenceEngine(ctx, w, rc, l, p)
	if err != nil {
		return err
	}
	defer closeRef()
	var (
		done    [numKinds]int
		checked int
		ranks   []rankedMap
	)
	for i, r := range reqs {
		if done[r.kind] == replayPerKind {
			continue
		}
		done[r.kind]++
		checked++
		var body bytes.Buffer
		status, err := c.sendTo(ctx, -1, r, &body)
		if err != nil || status != http.StatusOK {
			res.fail("replay of request %d (%s): status %d, %v", i, r.kind, status, err)
			continue
		}
		want, maps, err := expected(ctx, ref, r)
		if err != nil {
			return err
		}
		ranks = append(ranks, maps...)
		if err := sameAnswer(r, body.Bytes(), want); err != nil {
			res.fail("replay of request %d (%s): %v", i, r.kind, err)
		}
	}
	res.note("  replayed %d requests against an uncached %s engine", checked, w.Algo)

	// The ranking step alone (metrics.TopK, as the server calls it for
	// single and batch answers), timed on the reference results.
	var rank []time.Duration
	entries := 0
	for _, m := range ranks {
		t0 := time.Now()
		metrics.TopK(m.scores, m.source, topK)
		rank = append(rank, time.Since(t0))
		entries += len(m.scores)
	}
	res.Metrics["rank.topk_ms_p50"] = medianMS(rank)
	res.Metrics["rank.entries_mean"] = ratio(float64(entries), float64(len(ranks)))
	return nil
}

// rankedMap is one single-source result and its source.
type rankedMap struct {
	source graph.NodeID
	scores core.Scores
}

// referenceEngine builds the untraced, uncached backend over the same
// input; for an index workload it imports the index afresh from the
// file, so tail tables the server filled lazily are rebuilt, not shared.
func referenceEngine(ctx context.Context, w workload, rc runConfig, l *loaded, p core.Params) (engine.Estimator, func(), error) {
	cfg := engineConfig(p)
	cfg.Metrics = obs.NewRegistry()
	if !w.Index {
		est, err := engine.New(ctx, w.Algo, l.g, cfg)
		return est, func() {}, err
	}
	fresh, err := load(w, rc.Dir)
	if err != nil {
		return nil, nil, err
	}
	cfg.PRSimIndex = fresh.ix
	est, err := engine.New(ctx, w.Algo, fresh.g, cfg)
	if err != nil {
		fresh.close()
		return nil, nil, err
	}
	return est, fresh.close, nil
}

type scoredNode struct {
	Node  graph.NodeID `json:"node"`
	Score float64      `json:"score"`
}

// expected computes the reference answer to r, one ranked list per
// source (one for top-k and single, one per item for a batch), plus the
// single-source results it ranked.
func expected(ctx context.Context, ref engine.Estimator, r request) ([][]scoredNode, []rankedMap, error) {
	switch r.kind {
	case kindTopK:
		top, err := engine.TopK(ctx, ref, r.sources[0], topK)
		if err != nil {
			return nil, nil, err
		}
		want := make([]scoredNode, len(top))
		for i, x := range top {
			want[i] = scoredNode{x.Node, x.Score}
		}
		return [][]scoredNode{want}, nil, nil
	case kindSingle, kindBatch:
		var res []core.Scores
		var err error
		if r.kind == kindSingle {
			var s core.Scores
			s, err = ref.SingleSource(ctx, r.sources[0], nil)
			res = []core.Scores{s}
		} else {
			res, err = engine.MultiSource(ctx, ref, r.sources)
		}
		if err != nil {
			return nil, nil, err
		}
		want := make([][]scoredNode, len(res))
		maps := make([]rankedMap, len(res))
		for i, s := range res {
			want[i] = ranked(s, r.sources[i])
			maps[i] = rankedMap{r.sources[i], s}
		}
		return want, maps, nil
	}
	return nil, nil, fmt.Errorf("kind %v has no HTTP answer", r.kind)
}

// sameAnswer compares a response body with the reference answer.
func sameAnswer(r request, body []byte, want [][]scoredNode) error {
	var got struct {
		Results []scoredNode
		Items   []struct {
			Results []scoredNode
			Error   string
		}
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	lists := [][]scoredNode{got.Results}
	if r.kind == kindBatch {
		lists = lists[:0]
		for i, it := range got.Items {
			if it.Error != "" {
				return fmt.Errorf("batch item %d: %s", i, it.Error)
			}
			lists = append(lists, it.Results)
		}
	}
	if len(lists) != len(want) {
		return fmt.Errorf("%d result lists, reference has %d", len(lists), len(want))
	}
	for i := range want {
		if err := sameRanking(r.sources[i], lists[i], want[i]); err != nil {
			return err
		}
	}
	return nil
}

// ranked is the server's single-source answer: metrics.TopK's order
// with each node's score.
func ranked(s core.Scores, u graph.NodeID) []scoredNode {
	top := metrics.TopK(s, u, topK)
	out := make([]scoredNode, len(top))
	for i, v := range top {
		out[i] = scoredNode{v, s[v]}
	}
	return out
}

func sameRanking(u graph.NodeID, got, want []scoredNode) error {
	if len(got) != len(want) {
		return fmt.Errorf("source %d: %d results, reference has %d", u, len(got), len(want))
	}
	for i := range got {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("source %d rank %d: got node %d score %v, reference node %d score %v",
				u, i, got[i].Node, got[i].Score, want[i].Node, want[i].Score)
		}
	}
	return nil
}

// tracedMetrics derives the span-based per-layer metrics, times the
// cache-hit step in isolation, and writes the trace file.
func tracedMetrics(ctx context.Context, w workload, rc runConfig, l *loaded, p core.Params, tr *tracer, out []outcome, pool []graph.NodeID, res *childResult) error {
	mt := res.Metrics
	spans := tr.recorded()
	if d := tr.dropped.Load(); d > 0 {
		res.fail("trace buffer dropped %d spans", d)
	}
	self := selfTimes(spans)
	dur := map[string][]time.Duration{}
	selfBy := map[string][]time.Duration{}
	handler := map[int64]time.Duration{}
	for i, s := range spans {
		dur[s.name] = append(dur[s.name], s.end-s.start)
		selfBy[s.name] = append(selfBy[s.name], self[i])
		if s.parent == 0 && s.req >= 0 {
			handler[s.req] = s.end - s.start
		}
	}
	for _, k := range []string{"topk", "single", "batch"} {
		mt["server."+k+"_ms_p50"] = medianMS(dur["server."+k])
		mt["server."+k+"_self_ms_p50"] = medianMS(selfBy["server."+k])
	}
	var wait []time.Duration
	for _, o := range out {
		if h, ok := handler[o.id]; ok && o.served() {
			wait = append(wait, o.lat-h)
		}
	}
	mt["server.wait_ms_p50"] = medianMS(wait)
	engineCalls := 0
	for _, name := range []string{"engine.single", "engine.topk", "engine.multisource"} {
		mt[name+"_ms_p50"] = medianMS(dur[name])
		engineCalls += len(dur[name])
	}
	mt["engine.calls_per_request"] = ratio(float64(engineCalls), float64(len(out)))
	for _, name := range []string{"core.revreach", "core.estimate", "core.topk", "core.multisource", "prsim.single", "prsim.multisource"} {
		mt[name+"_ms_p50"] = medianMS(dur[name])
	}
	tr.mu.Lock()
	sum := 0
	for _, s := range tr.support {
		sum += s
	}
	mt["core.tree_support_mean"] = ratio(float64(sum), float64(len(tr.support)))
	tr.mu.Unlock()
	selfShares(mt, spans, self)
	if w.CacheBytes > 0 {
		hit, err := cacheHitCost(ctx, w, l, p, pool)
		if err != nil {
			return err
		}
		mt["cache.hit_ms_p50"] = hit
	}
	return writeTrace(rc, spans, res)
}

// cacheHitCost is the median time in milliseconds of engine.Cached's
// SingleSource on a resident key: the first pool source whose result
// fits a cache shard is filled, then read back 32 times.
func cacheHitCost(ctx context.Context, w workload, l *loaded, p core.Params, pool []graph.NodeID) (float64, error) {
	cfg := engineConfig(p)
	cfg.Metrics = obs.NewRegistry()
	cfg.PRSimIndex = l.ix
	base, err := engine.New(ctx, w.Algo, l.g, cfg)
	if err != nil {
		return 0, err
	}
	qc, err := cache.New(cache.Config{MaxBytes: w.CacheBytes, Metrics: obs.NewRegistry()})
	if err != nil {
		return 0, err
	}
	est, err := engine.Cached(base, engine.CacheConfig{Cache: qc, Version: l.g.Version, Scope: cfg.Fingerprint()})
	if err != nil {
		return 0, err
	}
	for _, u := range pool[:min(16, len(pool))] {
		if _, err := est.SingleSource(ctx, u, nil); err != nil {
			return 0, err
		}
		hits := qc.Stats().Hits
		if _, err := est.SingleSource(ctx, u, nil); err != nil {
			return 0, err
		}
		if qc.Stats().Hits == hits {
			continue // too large for a shard: never resident
		}
		var ds []time.Duration
		for range 32 {
			t0 := time.Now()
			if _, err := est.SingleSource(ctx, u, nil); err != nil {
				return 0, err
			}
			ds = append(ds, time.Since(t0))
		}
		return medianMS(ds), nil
	}
	return 0, errors.New("cache hit cost: no pool source has a result that fits a cache shard")
}
