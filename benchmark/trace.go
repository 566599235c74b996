package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/prsim"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's origin; parent is the index+1 of the enclosing span (0 for a
// root) and req the load generator's request id (-1 when unknown).
type span struct {
	name       string
	parent     int32
	req        int64
	start, end time.Duration
}

// tracer records spans into a buffer preallocated before the window, so
// recording costs two clock reads, one atomic add and one context value.
// Spans past the buffer's end are counted as dropped, which fails the
// run.
type tracer struct {
	origin  time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	// active counts handlers still inside the middleware; wait blocks
	// until they have all recorded their spans.
	active sync.WaitGroup

	mu      sync.Mutex
	support []int // reverse-reachable tree sizes
}

const spanCapacity = 1 << 17

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, spanCapacity)}
}

type spanKey struct{}
type reqKey struct{}

// begin opens a span named name under the span carried by ctx and
// returns a context carrying the new one plus its handle for end.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, int32) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return ctx, 0
	}
	parent, _ := ctx.Value(spanKey{}).(int32)
	req, ok := ctx.Value(reqKey{}).(int64)
	if !ok {
		req = -1
	}
	t.spans[i] = span{name: name, parent: parent, req: req, start: time.Since(t.origin)}
	h := int32(i + 1)
	return context.WithValue(ctx, spanKey{}, h), h
}

func (t *tracer) end(h int32) {
	if h > 0 {
		t.spans[h-1].end = time.Since(t.origin)
	}
}

// recorded returns the spans recorded so far; call only after wait.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// reset discards the spans recorded so far (the warm-up's); call only
// after wait.
func (t *tracer) reset() {
	t.next.Store(0)
	t.mu.Lock()
	t.support = nil
	t.mu.Unlock()
}

func (t *tracer) wait() { t.active.Wait() }

// middleware wraps the server in a span named after the endpoint and
// puts that span and the request id into the request context, which the
// server hands on to its estimator.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.active.Add(1)
		defer t.active.Done()
		id, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			id = -1
		}
		ctx, h := t.begin(context.WithValue(r.Context(), reqKey{}, id), serverSpanName(r.URL.Path))
		next.ServeHTTP(w, r.WithContext(ctx))
		t.end(h)
	})
}

func serverSpanName(path string) string {
	switch path {
	case "/topk":
		return "server.topk"
	case "/singlesource":
		return "server.single"
	case "/batch/singlesource":
		return "server.batch"
	}
	return "server.other"
}

// timed runs f inside a span.
func timed[T any](t *tracer, ctx context.Context, name string, f func(ctx context.Context) (T, error)) (T, error) {
	ctx, h := t.begin(ctx, name)
	defer t.end(h)
	return f(ctx)
}

// Traced backends. Each is registered with engine.Register and built
// only from public calls into the layer below, so the traced program is
// the untraced one plus spans. Each implements exactly the optional
// interfaces of the backend it stands in for (crashsim: TopKer, Pairer,
// MultiSourcer; prsim: MultiSourcer), so engine.Cached and engine.TopK
// take the same code paths with and without tracing.
const traceSuffix = "+trace"

func registerTraced(t *tracer) {
	engine.Register("crashsim"+traceSuffix, func(_ context.Context, g *graph.Graph, cfg engine.Config) (engine.Estimator, error) {
		p := core.Params{C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta, Iterations: cfg.Iterations, Workers: cfg.Workers, Seed: cfg.Seed}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return &tracedCrashSim{g: g, p: p, t: t}, nil
	})
	engine.Register("prsim"+traceSuffix, func(ctx context.Context, g *graph.Graph, cfg engine.Config) (engine.Estimator, error) {
		ix := cfg.PRSimIndex
		if ix == nil {
			var err error
			if ix, err = engine.BuildPRSimIndex(ctx, g, cfg); err != nil {
				return nil, err
			}
		} else if ix.Graph().Version() != g.Version() {
			return nil, fmt.Errorf("preloaded prsim index built on graph %#x, serving graph is %#x", ix.Graph().Version(), g.Version())
		}
		return &tracedPRSim{g: g, ix: ix, t: t}, nil
	})
}

type tracedCrashSim struct {
	g *graph.Graph
	p core.Params
	t *tracer
}

func (e *tracedCrashSim) Name() string { return "crashsim" }

// SingleSource splits core.SingleSourceCtx into its two public halves:
// the reverse-reachable tree (revReach) and the estimate over it
// (freeze, prefilter and walks). Scores are bit-identical.
func (e *tracedCrashSim) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	if u < 0 || int(u) >= e.g.NumNodes() {
		return nil, fmt.Errorf("core: source %d out of range for n=%d", u, e.g.NumNodes())
	}
	return timed(e.t, ctx, "engine.single", func(ctx context.Context) (core.Scores, error) {
		tree, err := timed(e.t, ctx, "core.revreach", func(context.Context) (*core.ReachTree, error) {
			return core.BuildTree(e.g, u, e.p)
		})
		if err != nil {
			return nil, err
		}
		e.t.mu.Lock()
		e.t.support = append(e.t.support, tree.Support())
		e.t.mu.Unlock()
		return timed(e.t, ctx, "core.estimate", func(context.Context) (core.Scores, error) {
			return core.SingleSourceWithTree(e.g, u, omega, e.p, tree)
		})
	})
}

func (e *tracedCrashSim) TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error) {
	return timed(e.t, ctx, "engine.topk", func(ctx context.Context) ([]core.TopKResult, error) {
		return timed(e.t, ctx, "core.topk", func(ctx context.Context) ([]core.TopKResult, error) {
			return core.TopKCtx(ctx, e.g, u, k, e.p)
		})
	})
}

func (e *tracedCrashSim) Pair(ctx context.Context, u, v graph.NodeID) (float64, error) {
	return timed(e.t, ctx, "engine.pair", func(ctx context.Context) (float64, error) {
		return timed(e.t, ctx, "core.pair", func(ctx context.Context) (float64, error) {
			return core.SinglePairCtx(ctx, e.g, u, v, e.p)
		})
	})
}

func (e *tracedCrashSim) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	return timed(e.t, ctx, "engine.multisource", func(ctx context.Context) ([]core.Scores, error) {
		return timed(e.t, ctx, "core.multisource", func(ctx context.Context) ([]core.Scores, error) {
			return core.MultiSource(ctx, e.g, sources, nil, e.p)
		})
	})
}

type tracedPRSim struct {
	g  *graph.Graph
	ix *prsim.Index
	t  *tracer
}

func (e *tracedPRSim) Name() string { return "prsim" }

func (e *tracedPRSim) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	return timed(e.t, ctx, "engine.single", func(ctx context.Context) (core.Scores, error) {
		s, err := timed(e.t, ctx, "prsim.single", func(ctx context.Context) (map[graph.NodeID]float64, error) {
			return e.ix.SingleSourceCtx(ctx, u)
		})
		if err != nil {
			return nil, err
		}
		if omega == nil {
			return core.Scores(s), nil
		}
		out := make(core.Scores, len(omega))
		for _, v := range omega {
			if v < 0 || int(v) >= e.g.NumNodes() {
				return nil, fmt.Errorf("engine: candidate %d out of range for n=%d", v, e.g.NumNodes())
			}
			out[v] = s[v]
		}
		return out, nil
	})
}

func (e *tracedPRSim) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	return timed(e.t, ctx, "engine.multisource", func(ctx context.Context) ([]core.Scores, error) {
		res, err := timed(e.t, ctx, "prsim.multisource", func(ctx context.Context) ([]map[graph.NodeID]float64, error) {
			return e.ix.MultiSource(ctx, sources)
		})
		if err != nil {
			return nil, err
		}
		out := make([]core.Scores, len(res))
		for i, s := range res {
			out[i] = core.Scores(s)
		}
		return out, nil
	})
}

// selfTimes returns each span's duration minus the part of it covered
// by the union of its children's intervals.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent > 0 && int(s.parent) <= len(spans) {
			children[s.parent-1] = append(children[s.parent-1], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
		covered, end := time.Duration(0), s.start
		for _, v := range ivs {
			a := max(v.a, end)
			if v.b > a {
				covered += v.b - a
				end = v.b
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X"
// complete events, microseconds), one row per request id, readable in
// chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		layer := s.name
		if j := strings.IndexByte(layer, '.'); j >= 0 {
			layer = layer[:j]
		}
		events[i] = event{
			Name: s.name, Cat: layer, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.req,
			Args: map[string]any{"span": i + 1, "parent": s.parent, "request": s.req},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
