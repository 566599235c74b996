package engine

import (
	"context"
	"errors"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// Per-backend serving metrics. engine.New wraps every Estimator it
// builds in a metering layer, so all consumers — the HTTP server, the
// CLIs, the bench harness — get query counts, error/cancellation
// counts and end-to-end latency percentiles for free, named
//
//	engine.<backend>.queries             total queries (all ops; a batch counts one per source)
//	engine.<backend>.queries.<op>        per-op counts (singlesource, topk, pair, multisource)
//	engine.<backend>.errors              non-cancellation failures
//	engine.<backend>.canceled            context cancellations/deadlines
//	engine.<backend>.latency             latency quantile histogram across all ops
//
// A multi-source batch adds its source count to queries (so the total
// stays "queries answered" whatever the transport), ticks
// queries.multisource once per batch, and records one latency
// observation for the whole batch.
//
// An operation the backend lacks natively is answered by the package
// fallback through the wrapper, so it counts as the single-source
// queries it is made of (see metered).
type backendMetrics struct {
	queries      *obs.Counter
	singleSource *obs.Counter
	topK         *obs.Counter
	pair         *obs.Counter
	multiSource  *obs.Counter
	errors       *obs.Counter
	canceled     *obs.Counter
	latency      *obs.QuantileHistogram
}

func newBackendMetrics(reg *obs.Registry, backend string) *backendMetrics {
	p := "engine." + backend + "."
	return &backendMetrics{
		queries:      reg.Counter(p + "queries"),
		singleSource: reg.Counter(p + "queries.singlesource"),
		topK:         reg.Counter(p + "queries.topk"),
		pair:         reg.Counter(p + "queries.pair"),
		multiSource:  reg.Counter(p + "queries.multisource"),
		errors:       reg.Counter(p + "errors"),
		canceled:     reg.Counter(p + "canceled"),
		latency:      reg.Quantile(p + "latency"),
	}
}

// metered wraps an Estimator with per-backend metrics. It answers
// every operation: natively when the wrapped backend has it, otherwise
// through the package fallback run against the wrapper itself, so a
// fallback's SingleSource calls are metered as single-source queries.
type metered struct {
	inner  Estimator
	native ops
	m      *backendMetrics
}

func (e *metered) ops() ops { return e.native }

func (e *metered) Name() string { return e.inner.Name() }

// observe meters one backend call answering n queries: it ticks op
// once, records the latency, and counts a failure as a cancellation or
// an error.
func observe[T any](m *backendMetrics, op *obs.Counter, n int, call func() (T, error)) (T, error) {
	m.queries.Add(uint64(n))
	op.Inc()
	start := time.Now()
	r, err := call()
	m.latency.Since(start)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.canceled.Inc()
	default:
		m.errors.Inc()
	}
	return r, err
}

func (e *metered) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	ctx = orBackground(ctx)
	return observe(e.m, e.m.singleSource, 1, func() (core.Scores, error) {
		return e.inner.SingleSource(ctx, u, omega)
	})
}

func (e *metered) TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error) {
	ctx = orBackground(ctx)
	if e.native&opTopK == 0 {
		return topKFallback(ctx, e, u, k)
	}
	return observe(e.m, e.m.topK, 1, func() ([]core.TopKResult, error) {
		return e.inner.(TopKer).TopK(ctx, u, k)
	})
}

func (e *metered) Pair(ctx context.Context, u, v graph.NodeID) (float64, error) {
	ctx = orBackground(ctx)
	if e.native&opPair == 0 {
		return pairFallback(ctx, e, u, v)
	}
	return observe(e.m, e.m.pair, 1, func() (float64, error) {
		return e.inner.(Pairer).Pair(ctx, u, v)
	})
}

func (e *metered) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	ctx = orBackground(ctx)
	if e.native&opMulti == 0 {
		return multiFallback(ctx, e, sources)
	}
	return observe(e.m, e.m.multiSource, len(sources), func() ([]core.Scores, error) {
		return e.inner.(MultiSourcer).MultiSource(ctx, sources)
	})
}
