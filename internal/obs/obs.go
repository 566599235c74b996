// Package obs is the observability substrate of the serving path: a
// stdlib-only metrics layer with atomic counters, gauges and
// log-bucketed latency quantile histograms, grouped in registries with
// a consistent snapshot API.
//
// Design constraints, in order:
//
//   - Hot-path cost. Counter.Add is a single atomic add and
//     QuantileHistogram.Observe a few (see quantile.go); nothing on the
//     query path takes a lock or allocates.
//   - No dependencies. The repo's rule is stdlib only, so this is a
//     deliberately small subset of the Prometheus data model: uint64
//     counters, int64 gauges and latency histograms.
//   - Snapshots, not scraping. Snapshot() returns plain maps/structs
//     that marshal to JSON as-is; consumers (the HTTP /metrics
//     endpoint, the bench harness) diff two snapshots with Delta to
//     attribute work to a time window.
//
// Metric names are flat dotted strings ("engine.crashsim.queries");
// registries create metrics on first use, so instrumentation sites can
// hold *Counter fields without registration ceremony.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (e.g. in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a namespace of metrics. Metrics are created on first
// use and live forever; lookups take a read lock, but instrumentation
// sites are expected to look up once and keep the pointer.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	quants   map[string]*QuantileHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		quants:   make(map[string]*QuantileHistogram),
	}
}

// Default is the process-wide registry. Package-level instrumentation
// (internal/core's work counters) lands here; servers may use private
// registries for per-instance metrics and merge in Default when
// reporting.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Quantile returns the named quantile histogram, creating it if
// needed. It needs no bounds configuration: the log-linear layout
// spans every duration with bounded relative error.
func (r *Registry) Quantile(name string) *QuantileHistogram {
	r.mu.RLock()
	q, ok := r.quants[name]
	r.mu.RUnlock()
	if ok {
		return q
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if q, ok = r.quants[name]; !ok {
		q = new(QuantileHistogram)
		r.quants[name] = q
	}
	return q
}

// Snapshot is a point-in-time copy of a registry, JSON-marshalable
// as-is.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
	// Quantiles summarizes the registry's quantile histograms as
	// cumulative (process-lifetime) percentiles. Windowed percentiles
	// cannot be derived by subtracting two summaries — percentiles do
	// not subtract — so Delta passes the later summary through
	// unchanged; consumers that need per-window percentiles (the load
	// harness) merge per-worker QuantileHistograms instead.
	Quantiles map[string]QuantileSnapshot `json:"quantiles,omitempty"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:  make(map[string]uint64, len(r.counters)),
		Gauges:    make(map[string]int64, len(r.gauges)),
		Quantiles: make(map[string]QuantileSnapshot, len(r.quants)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, q := range r.quants {
		s.Quantiles[name] = q.Snapshot()
	}
	return s
}

// Delta returns the counter-wise difference s − prev, attributing
// work to the window between the two snapshots. Gauges keep their
// current (s) value — a gauge delta is meaningless. Counters absent
// from prev are treated as starting at zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:  make(map[string]uint64, len(s.Counters)),
		Gauges:    make(map[string]int64, len(s.Gauges)),
		Quantiles: make(map[string]QuantileSnapshot, len(s.Quantiles)),
	}
	// Percentile summaries do not subtract; keep the later snapshot's
	// cumulative view (see the Quantiles field doc).
	for k, v := range s.Quantiles {
		out.Quantiles[k] = v
	}
	for k, v := range s.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	return out
}
