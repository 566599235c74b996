// Package prsim implements a PRSim-style estimator (Wei et al., SIGMOD
// 2019, the paper's reference [20]): single-source SimRank tuned for
// power-law graphs by splitting work between an index over hub nodes
// and on-the-fly computation for the long tail.
//
// Like SLING it evaluates the last-meeting decomposition
//
//	sim(u, v) = Σ_ℓ Σ_w Pr[W(u) at w at step ℓ] · h_ℓ(v, w) · d(w)
//
// but instead of indexing h for every node, it (i) samples the source
// side: n_q truncated √c-walks from u realize Pr[W(u) at w at ℓ], and
// (ii) precomputes the reverse-push tables h_ℓ(·, w) only for the
// highest in-degree hubs — the nodes walks actually hit on a power-law
// graph — while tail nodes are pushed lazily at query time and cached.
// The correction d(w) is the same never-meet-again probability SLING
// estimates, computed per node alongside its table.
//
// The index is compiled flat: each published table packs its (origin,
// prob) pairs into contiguous arrays addressed by a per-step offset
// table, the eager hub tables share one packed arena (mirroring the
// CSR layout of internal/core/frozen.go), and hub tables are built in
// parallel with byte-identical output across worker counts. Published
// tables are immutable; lazy tail fill is guarded by per-node
// singleflight so concurrent queries are safe without a lock on the
// hot read path. The map-based pre-compile implementation is retained
// in skeleton.go as the benchmark baseline and differential oracle.
//
// Compared to the original system this drops the variance-adaptive
// sample allocation and selects hubs by in-degree rather than by
// PageRank; the architecture (hub index + source sampling + tail
// fallback) is preserved. See DESIGN.md §15.
package prsim

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"crashsim/internal/graph"
	"crashsim/internal/par"
	"crashsim/internal/rng"
	"crashsim/internal/sling"
)

// Options configures the index and queries.
type Options struct {
	// C is the SimRank decay factor in (0,1). Default 0.6.
	C float64
	// Eps is the accuracy target steering the derived budgets.
	// Default 0.025.
	Eps float64
	// Delta is the failure probability for the derived sample count.
	// Default 0.01.
	Delta float64
	// HubFraction is the fraction of nodes (by in-degree rank) indexed
	// eagerly. Default 0.05. 0 keeps the index empty (pure online);
	// 1 indexes everything (SLING-like).
	HubFraction float64
	// Iterations overrides the number of source walks n_q per query
	// (0 derives ⌈3c/ε²·ln(n/δ)⌉, as for the other MC methods). At most
	// maxIterations.
	Iterations int
	// MaxDepth caps walk length and push depth. 0 derives the depth at
	// which the remaining walk mass drops below Eps/4. At most
	// maxDepthLimit.
	MaxDepth int
	// Prune drops push entries below this threshold. 0 derives
	// ε·(1−√c)/8.
	Prune float64
	// DSamples is the per-node sample count for d(w). Default 120, at
	// most maxDSamples.
	DSamples int
	// Workers bounds hub-build and batch-query parallelism (default 1).
	// It never affects results — builds are byte-identical across
	// worker counts — and is not part of the index identity.
	Workers int
	// Seed makes all estimation deterministic.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.6
	}
	if o.Eps == 0 {
		o.Eps = 0.025
	}
	if o.Delta == 0 {
		o.Delta = 0.01
	}
	if o.HubFraction == 0 {
		o.HubFraction = 0.05
	}
	sc := math.Sqrt(o.C)
	if o.MaxDepth == 0 {
		o.MaxDepth = int(math.Ceil(math.Log(o.Eps/4) / math.Log(sc)))
	}
	if o.Prune == 0 {
		o.Prune = o.Eps * (1 - sc) / 8
	}
	if o.DSamples == 0 {
		o.DSamples = 120
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// WithDefaults returns the options with every zero field replaced by
// its default, the form recorded in the index and its snapshots.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// Upper bounds on the options that size build and query work. A
// snapshot stores them as u32 fields, and Validate is what keeps a
// forged value from running the tail builds' d(w) sampler or the query
// loop for minutes. Each sits far above anything derived in this
// repository: MaxDepth is 23 at c = 0.6 and the smallest ε Fig 5 sweeps
// (0.0125); the theory n_q there is about 217k on a 1M-node graph
// (serve-index overrides it to 20); DSamples defaults to 120.
const (
	maxDepthLimit = 1024
	maxDSamples   = 1 << 16
	maxIterations = 1 << 24
)

// Validate checks option ranges after defaulting. Every float check is
// written so that NaN fails it.
func (o Options) Validate() error {
	q := o.withDefaults()
	if !(q.C > 0 && q.C < 1) {
		return fmt.Errorf("prsim: decay factor c=%g outside (0,1)", q.C)
	}
	if !(q.Eps > 0 && q.Eps < 1) {
		return fmt.Errorf("prsim: accuracy target eps=%g outside (0,1)", q.Eps)
	}
	if !(q.Delta > 0 && q.Delta < 1) {
		return fmt.Errorf("prsim: failure probability delta=%g outside (0,1)", q.Delta)
	}
	if !(q.HubFraction >= 0 && q.HubFraction <= 1) {
		return fmt.Errorf("prsim: hub fraction %g outside [0,1]", q.HubFraction)
	}
	if q.Iterations < 0 || q.Iterations > maxIterations {
		return fmt.Errorf("prsim: Iterations %d outside [0,%d]", q.Iterations, maxIterations)
	}
	if q.MaxDepth < 1 || q.MaxDepth > maxDepthLimit {
		return fmt.Errorf("prsim: MaxDepth %d outside [1,%d]", q.MaxDepth, maxDepthLimit)
	}
	if !(q.Prune >= 0) {
		return fmt.Errorf("prsim: prune threshold must be >= 0, got %g", q.Prune)
	}
	if q.DSamples < 1 || q.DSamples > maxDSamples {
		return fmt.Errorf("prsim: DSamples %d outside [1,%d]", q.DSamples, maxDSamples)
	}
	if q.Workers < 1 {
		return fmt.Errorf("prsim: workers must be >= 1, got %d", q.Workers)
	}
	return nil
}

// table is one node's compiled reverse-push result plus its d value:
// step ℓ's (origin, prob) pairs live at [off[ℓ-1], off[ℓ]) in the
// packed origins/probs arrays, sorted by origin ascending. A table is
// immutable once published.
type table struct {
	off     []int32
	origins []graph.NodeID
	probs   []float64
	d       float64
}

func (t *table) levels() int  { return len(t.off) - 1 }
func (t *table) entries() int { return len(t.origins) }

// Index holds the compiled hub tables plus lazily filled tail caches.
// All methods are safe for concurrent use.
type Index struct {
	g   *graph.Graph
	opt Options
	nq  int
	sc  float64

	// tables[w] is the published (immutable) table of node w, nil until
	// built. Hub tables are built eagerly and alias one packed arena;
	// tail tables are published on first visit.
	tables []atomic.Pointer[table]
	// eager[w] marks the hub set chosen at build time; the walk loop
	// reads it to attribute hub hits.
	eager []bool
	hubs  int

	// entriesTotal/visits/hubHits/tailBuilds back Stats() and the
	// prsim.* obs counters; entriesTotal is the running counter behind
	// IndexEntries, updated at table publish.
	entriesTotal atomic.Int64
	visits       atomic.Int64
	hubHits      atomic.Int64
	tailBuilds   atomic.Int64

	// Per-node singleflight for the lazy tail fill: mu guards only the
	// in-flight map, never the published tables, so the hot read path
	// (an atomic pointer load) takes no lock.
	mu    sync.Mutex
	calls map[graph.NodeID]*sync.WaitGroup

	pool sync.Pool // *queryScratch

	// release gives borrowed memory back to its owner (drops the
	// mapping reference an imported-from-mmap index holds).
	release func() error
}

// Close releases any borrowed memory backing the index (a no-op for
// built or copied indexes). Idempotent; the index must not be queried
// afterwards.
func (ix *Index) Close() error {
	r := ix.release
	ix.release = nil
	if r == nil {
		return nil
	}
	return r()
}

// SetRelease attaches the borrowed-memory release hook; the store
// layer calls it when an index is imported aliasing a mapping.
func (ix *Index) SetRelease(f func() error) { ix.release = f }

// Stats is a point-in-time snapshot of the index's work counters.
type Stats struct {
	Visits     int64 // walk steps that landed on some node
	HubHits    int64 // visits served by an eagerly indexed hub table
	TailBuilds int64 // tables built lazily at query time
	Entries    int64 // total (step, origin, prob) entries published
}

// Stats reports cumulative per-index counters (the process-wide
// equivalents are the prsim.* obs counters on /metrics).
func (ix *Index) Stats() Stats {
	return Stats{
		Visits:     ix.visits.Load(),
		HubHits:    ix.hubHits.Load(),
		TailBuilds: ix.tailBuilds.Load(),
		Entries:    ix.entriesTotal.Load(),
	}
}

// Build selects hubs by in-degree and compiles their tables and d
// values in parallel (byte-identical across worker counts); everything
// else is computed on demand at query time.
func Build(g *graph.Graph, opt Options) (*Index, error) {
	return BuildCtx(context.Background(), g, opt)
}

// BuildCtx is Build with cancellation; on error the index is unusable.
func BuildCtx(ctx context.Context, g *graph.Graph, opt Options) (*Index, error) {
	ix, hubs, err := newIndex(g, opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(hubs) > 0 {
		// Compile every hub table independently (each is a pure function
		// of (g, opt, w)), then assemble serially in hub order into one
		// packed arena — deterministic regardless of worker count.
		parts := make([]*table, len(hubs))
		if err := par.ForEachCtx(ctx, len(hubs), ix.opt.Workers, func(i int) {
			parts[i] = ix.compile(hubs[i])
		}); err != nil {
			return nil, err
		}
		total := 0
		for _, p := range parts {
			total += p.entries()
		}
		origins := make([]graph.NodeID, 0, total)
		probs := make([]float64, 0, total)
		for _, p := range parts {
			origins = append(origins, p.origins...)
			probs = append(probs, p.probs...)
		}
		base := 0
		for i, p := range parts {
			end := base + p.entries()
			ix.publish(hubs[i], &table{
				off:     p.off,
				origins: origins[base:end:end],
				probs:   probs[base:end:end],
				d:       p.d,
			})
			base = end
		}
	}
	return ix, nil
}

// newIndex is the one constructor behind Build and ImportFlat: it
// defaults and validates opt, derives the per-query walk count n_q and
// selects the hub set, returning an index with no table published yet
// plus its hubs in ascending id order.
func newIndex(g *graph.Graph, opt Options) (*Index, []graph.NodeID, error) {
	o := opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	n := g.NumNodes()
	nq := float64(o.Iterations)
	if o.Iterations == 0 {
		nq = math.Ceil(3 * o.C / (o.Eps * o.Eps) * math.Log(float64(n)/o.Delta))
	}
	// A tiny Eps or Delta derives a walk count past any int; refuse it
	// here rather than convert it.
	if !(nq <= maxIterations) {
		return nil, nil, fmt.Errorf("prsim: Eps %g and Delta %g derive n_q = %g source walks per query, above %d; raise Eps or set Iterations",
			o.Eps, o.Delta, nq, maxIterations)
	}
	ix := &Index{
		g:      g,
		opt:    o,
		nq:     int(max(nq, 1)),
		sc:     math.Sqrt(o.C),
		tables: make([]atomic.Pointer[table], n),
		eager:  make([]bool, n),
		calls:  make(map[graph.NodeID]*sync.WaitGroup),
	}
	hubs := selectHubs(g, int(o.HubFraction*float64(n)))
	ix.hubs = len(hubs)
	for _, w := range hubs {
		ix.eager[w] = true
	}
	return ix, hubs, nil
}

// selectHubs returns the h highest in-degree nodes (ties by ascending
// id) via a degree histogram — O(n + max degree), no sort over n.
func selectHubs(g *graph.Graph, h int) []graph.NodeID {
	n := g.NumNodes()
	if h <= 0 {
		return nil
	}
	if h > n {
		h = n
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := g.InDegree(graph.NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	counts := make([]int, maxDeg+1)
	for v := 0; v < n; v++ {
		counts[g.InDegree(graph.NodeID(v))]++
	}
	// cutoff = the h-th largest in-degree: every node above it is a
	// hub, and nodes exactly at it fill the remainder in id order.
	cutoff, above := maxDeg, 0
	for above+counts[cutoff] < h {
		above += counts[cutoff]
		cutoff--
	}
	hubs := make([]graph.NodeID, 0, h)
	atCutoff := h - above
	for v := 0; v < n && len(hubs) < h; v++ {
		d := g.InDegree(graph.NodeID(v))
		if d > cutoff {
			hubs = append(hubs, graph.NodeID(v))
		} else if d == cutoff && atCutoff > 0 {
			hubs = append(hubs, graph.NodeID(v))
			atCutoff--
		}
	}
	return hubs
}

// HubCount reports how many nodes were indexed eagerly.
func (ix *Index) HubCount() int { return ix.hubs }

// IndexEntries returns the total number of stored (step, origin, prob)
// entries across all published tables (eager hubs plus lazily cached
// tail nodes) — the index-memory proxy the benchmark reports use. It
// reads a running counter maintained at table publish, not a rescan.
func (ix *Index) IndexEntries() int { return int(ix.entriesTotal.Load()) }

// Options returns the fully defaulted options the index was built with.
func (ix *Index) Options() Options { return ix.opt }

// Graph returns the graph the index was built on.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// publish stores w's immutable table and advances the entry counters.
// Callers must hold the singleflight slot for w (or be the builder).
func (ix *Index) publish(w graph.NodeID, t *table) {
	ix.tables[w].Store(t)
	ix.entriesTotal.Add(int64(t.entries()))
	statEntries.Add(uint64(t.entries()))
}

// ensure returns w's table, building and publishing it on first visit.
// The fast path is a single atomic load; builds of distinct nodes
// proceed in parallel, and concurrent requests for the same node
// coalesce behind one build (per-node singleflight).
func (ix *Index) ensure(w graph.NodeID) *table {
	if t := ix.tables[w].Load(); t != nil {
		return t
	}
	for {
		ix.mu.Lock()
		if t := ix.tables[w].Load(); t != nil {
			ix.mu.Unlock()
			return t
		}
		if wg, ok := ix.calls[w]; ok {
			ix.mu.Unlock()
			wg.Wait() // publish happens-before Done
			continue
		}
		wg := new(sync.WaitGroup)
		wg.Add(1)
		ix.calls[w] = wg
		ix.mu.Unlock()

		t := ix.compile(w)
		ix.publish(w, t)
		ix.tailBuilds.Add(1)
		statTailBuilds.Inc()

		ix.mu.Lock()
		delete(ix.calls, w)
		ix.mu.Unlock()
		wg.Done()
		return t
	}
}

// levelHint caps the level capacity compile reserves up front: MaxDepth
// can come from a snapshot file, and pruning ends most tables within a
// few dozen levels anyway.
const levelHint = 64

// compile builds the reverse-push table of w — h_ℓ(v, w) for ℓ up to
// MaxDepth via a forward level expansion along out-edges with the
// √c/|I(child)| multiplier, pruning small entries — plus d(w). It is a
// pure function of (g, opt, w): levels expand in ascending node order,
// so the packed floats are bit-identical however the build is
// scheduled (and identical to the map-based skeleton's).
func (ix *Index) compile(w graph.NodeID) *table {
	t := &table{off: make([]int32, 1, min(ix.opt.MaxDepth, levelHint)+1)}
	cur := map[graph.NodeID]float64{w: 1}
	var order []graph.NodeID
	for step := 1; step <= ix.opt.MaxDepth; step++ {
		next := make(map[graph.NodeID]float64, len(cur)*2)
		order = order[:0]
		for x := range cur {
			order = append(order, x)
		}
		slices.Sort(order)
		for _, x := range order {
			px := cur[x]
			for _, y := range ix.g.Out(x) {
				p := px * ix.sc / float64(ix.g.InDegree(y))
				if p < ix.opt.Prune {
					continue
				}
				next[y] += p
			}
		}
		if len(next) == 0 {
			break
		}
		order = order[:0]
		for x := range next {
			order = append(order, x)
		}
		slices.Sort(order)
		for _, v := range order {
			t.origins = append(t.origins, v)
			t.probs = append(t.probs, next[v])
		}
		t.off = append(t.off, int32(len(t.origins)))
		cur = next
	}
	// d(w) is sampled on an independent per-node stream.
	t.d = sling.NeverMeet(ix.g, w, ix.sc, ix.opt.MaxDepth, ix.opt.DSamples, rng.Split(ix.opt.Seed^0x5157, uint64(w)))
	return t
}

// queryScratch is the pooled per-query accumulator: a dense score slab
// plus an epoch-stamped touch set, so neither needs an O(n) clear
// between queries.
type queryScratch struct {
	acc     []float64
	mark    []uint64
	epoch   uint64
	touched []graph.NodeID
}

func (s *queryScratch) add(v graph.NodeID, x float64) {
	if s.mark[v] != s.epoch {
		s.mark[v] = s.epoch
		s.acc[v] = 0
		s.touched = append(s.touched, v)
	}
	s.acc[v] += x
}

func (ix *Index) acquireScratch(n int) *queryScratch {
	var s *queryScratch
	if v := ix.pool.Get(); v != nil {
		s = v.(*queryScratch)
		statScratchHits.Inc()
	} else {
		s = new(queryScratch)
		statScratchMisses.Inc()
	}
	if cap(s.acc) < n {
		s.acc = make([]float64, n)
		s.mark = make([]uint64, n)
	} else {
		s.acc = s.acc[:n]
		s.mark = s.mark[:n]
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could alias, clear once
		clear(s.mark)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
	return s
}

func (ix *Index) releaseScratch(s *queryScratch) { ix.pool.Put(s) }

// SingleSource estimates sim(u, ·) without cancellation.
func (ix *Index) SingleSource(u graph.NodeID) (map[graph.NodeID]float64, error) {
	return ix.SingleSourceCtx(context.Background(), u)
}

// SingleSourceCtx estimates sim(u, ·): n_q source walks realize the
// source-side distribution; each visited (step, node) adds the node's
// table column at that step, weighted by d(node). Tail nodes' tables
// are compiled on first visit and cached for later queries. Safe for
// concurrent use; honors ctx between walk batches.
func (ix *Index) SingleSourceCtx(ctx context.Context, u graph.NodeID) (map[graph.NodeID]float64, error) {
	n := ix.g.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("prsim: source %d out of range for n=%d", u, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := ix.acquireScratch(n)
	defer ix.releaseScratch(s)
	var visits, hubHits int64
	r := rng.Split(ix.opt.Seed, uint64(u))
	for k := 0; k < ix.nq; k++ {
		if k&63 == 63 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		cur := u
		for step := 1; step <= ix.opt.MaxDepth; step++ {
			if r.Float64() >= ix.sc {
				break
			}
			in := ix.g.In(cur)
			if len(in) == 0 {
				break
			}
			cur = in[r.IntN(len(in))]
			visits++
			if ix.eager[cur] {
				hubHits++
			}
			t := ix.ensure(cur)
			if step > t.levels() {
				continue
			}
			lo, hi := t.off[step-1], t.off[step]
			dw := t.d
			for i := lo; i < hi; i++ {
				s.add(t.origins[i], t.probs[i]*dw)
			}
		}
	}
	ix.visits.Add(visits)
	ix.hubHits.Add(hubHits)
	statVisits.Add(uint64(visits))
	statHubHits.Add(uint64(hubHits))
	inv := 1 / float64(ix.nq)
	out := make(map[graph.NodeID]float64, len(s.touched)+1)
	for _, v := range s.touched {
		out[v] = s.acc[v] * inv
	}
	out[u] = 1
	return out, nil
}

// MultiSource answers a batch of sources, bit-identical to issuing
// SingleSourceCtx per source in order. Duplicate sources are computed
// once and cloned; unique sources fan out across opt.Workers, sharing
// one lazy table build per unique visited node through the per-node
// singleflight and one pooled scratch arena per worker.
func (ix *Index) MultiSource(ctx context.Context, sources []graph.NodeID) ([]map[graph.NodeID]float64, error) {
	n := ix.g.NumNodes()
	for _, u := range sources {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("prsim: source %d out of range for n=%d", u, n)
		}
	}
	uniq := make([]graph.NodeID, 0, len(sources))
	pos := make(map[graph.NodeID]int, len(sources))
	for _, u := range sources {
		if _, ok := pos[u]; !ok {
			pos[u] = len(uniq)
			uniq = append(uniq, u)
		}
	}
	res := make([]map[graph.NodeID]float64, len(uniq))
	errs := make([]error, len(uniq))
	if err := par.ForEachCtx(ctx, len(uniq), ix.opt.Workers, func(i int) {
		res[i], errs[i] = ix.SingleSourceCtx(ctx, uniq[i])
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]map[graph.NodeID]float64, len(sources))
	used := make([]bool, len(uniq))
	for i, u := range sources {
		j := pos[u]
		if used[j] {
			out[i] = maps.Clone(res[j])
		} else {
			out[i] = res[j]
			used[j] = true
		}
	}
	return out, nil
}
