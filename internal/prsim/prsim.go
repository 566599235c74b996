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
// Every table is pushed by core.Push, the level push CrashSim's
// revReach and SLING's build run too: the paper-literal rule along
// out-edges, pruned at Prune. The index is compiled flat: each
// published table packs its (origin, prob) pairs into contiguous
// arrays addressed by a per-step offset table, stored per step like
// core.ReachTree's levels, the eager hub tables share one packed arena,
// and hub tables are built in parallel with byte-identical output
// across worker counts. Published tables are immutable; lazy tail fill
// is guarded by per-node singleflight so concurrent queries are safe
// without a lock on the hot read path. A query runs in three phases —
// walk, build the missing tail tables, accumulate by node range — each
// spread over its width, with bit-identical answers at every width. The
// map-based pre-compile implementation survives in skeleton_test.go as
// the differential oracle.
//
// Compared to the original system this drops the variance-adaptive
// sample allocation and selects hubs by in-degree rather than by
// PageRank; the architecture (hub index + source sampling + tail
// fallback) is preserved. See DESIGN.md §15.
package prsim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/par"
	"crashsim/internal/pool"
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
	// eagerly: ⌊HubFraction·n⌋ hubs. 0 means the default, 0.05. A
	// positive fraction below 1/n keeps the index empty (pure online);
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
	// Workers bounds hub-build parallelism and the width of the queries
	// the index answers at its own width (SingleSourceResult,
	// SingleSourceCtx, MultiSource): their walks, tail builds and
	// accumulation fan out over it (default 1). It never affects
	// results — builds are byte-identical and answers bit-identical
	// across worker counts — and is not part of the index identity.
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
	// shift cuts the node ids into the query's accumulation ranges of
	// 2^shift ids each (see maxRanges); groupColumn is minGroupColumn,
	// which tests lower to cut small graphs too.
	shift       uint
	groupColumn int

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
		g:           g,
		opt:         o,
		nq:          int(max(nq, 1)),
		sc:          math.Sqrt(o.C),
		shift:       rangeShift(n),
		groupColumn: minGroupColumn,
		tables:      make([]atomic.Pointer[table], n),
		eager:       make([]bool, n),
		calls:       make(map[graph.NodeID]*sync.WaitGroup),
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
// coalesce behind one build (per-node singleflight). slow reports that
// the table was not yet published on entry, so this call built it or
// waited for its build.
func (ix *Index) ensure(w graph.NodeID) (t *table, slow bool) {
	if t := ix.tables[w].Load(); t != nil {
		return t, false
	}
	for {
		ix.mu.Lock()
		if t := ix.tables[w].Load(); t != nil {
			ix.mu.Unlock()
			return t, true
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
		return t, true
	}
}

// compile builds the reverse-push table of w — h_ℓ(v, w) for ℓ up to
// MaxDepth, pushed along out-edges with the √c/|I(child)| multiplier
// (core.TransitionPaperLiteral), pruning each contribution below Prune —
// plus d(w). It is a pure function of (g, opt, w): the push sums in
// ascending node order, so the packed floats are bit-identical however
// the build is scheduled (and identical to the map-based skeleton's).
// The table keeps the levels up to the last non-empty one.
func (ix *Index) compile(w graph.NodeID) *table {
	t := new(table)
	core.Push(ix.g, w, ix.opt.C, ix.opt.MaxDepth, core.TransitionPaperLiteral, ix.opt.Prune, core.OutEdges, func(rt *core.ReachTree) {
		levels := 0
		for levels+1 < rt.NumLevels() {
			if nodes, _ := rt.Level(levels + 1); len(nodes) == 0 {
				break
			}
			levels++
		}
		entries := rt.Support() - 1
		t.off = make([]int32, levels+1)
		t.origins = make([]graph.NodeID, 0, entries)
		t.probs = make([]float64, 0, entries)
		for step := 1; step <= levels; step++ {
			nodes, probs := rt.Level(step)
			t.origins = append(t.origins, nodes...)
			t.probs = append(t.probs, probs...)
			t.off[step] = int32(len(t.origins))
		}
	})
	// d(w) is sampled on an independent per-node stream.
	r := rng.FastSplit(ix.opt.Seed^0x5157, uint64(w))
	t.d = sling.NeverMeet(ix.g, w, ix.sc, ix.opt.MaxDepth, ix.opt.DSamples, &r)
	return t
}

// maxRanges bounds the node-id ranges a query's accumulation is split
// over. The ranges are a fixed split of the graph's ids into blocks of
// 2^shift, the fewest such blocks up to maxRanges, so a node's range is
// its id shifted right. The split depends only on the graph's size,
// never on the width, so a result lists its nodes in the same order at
// every width.
const maxRanges = 16

// rangeShift returns the shift that cuts n node ids into at most
// maxRanges blocks of 2^shift ids.
func rangeShift(n int) uint {
	return uint(bits.Len(uint(max(n-1, 0) / maxRanges)))
}

// minGroupColumn is the mean visited column length, in entries, below
// which a query does not cut a source's accumulation into range
// groups: every group scans all of the source's visits and
// binary-searches each column for its ids, which costs about what
// splitting the adds saves at 400 entries (web-1m@0.02 under the
// serve-index parameters) and pays from about 1,100 (web-1m@0.1, a
// fifth off a warm query at two workers). hepth@0.05 averages 90
// entries, the serve-index workload (web-1m@0.5) 3,000.
const minGroupColumn = 512

// rangeGroups returns how many work items of consecutive ranges each
// source's accumulation is cut into at the given width: one unless the
// sources alone are too few to keep the workers busy (fewer than two
// per worker) and the visited columns are long; then enough groups to
// make about two items per worker. The grouping never changes a
// result: the ranges alone decide where a node is listed.
func (ix *Index) rangeGroups(q *query, workers int) int {
	k := len(q.src)
	if workers <= 1 || k >= 2*workers {
		return 1
	}
	visits, entries := 0, 0
	for _, vs := range q.walks[:k] {
		visits += len(vs)
		for _, v := range vs {
			if t := ix.tables[v.node].Load(); int(v.step) <= t.levels() {
				entries += int(t.off[v.step] - t.off[v.step-1])
			}
		}
	}
	if entries < ix.groupColumn*visits {
		return 1
	}
	return min(ix.ranges(), (2*workers+k-1)/k)
}

// ranges returns the number of accumulation ranges.
func (ix *Index) ranges() int { return (ix.g.NumNodes()-1)>>ix.shift + 1 }

// visit is one walk step that landed on a node.
type visit struct {
	step int32
	node graph.NodeID
}

// query is the pooled state of one MultiSourceResults call. Its slices
// are reused at their old capacity, the visit lists included; it keeps
// no reference to an answer or an accumulator once released.
type query struct {
	uniq []graph.NodeID // the unique sources, ascending
	res  []core.Result  // res[i]: uniq[i]'s answer

	// The chunk of sources running the phases: src[i]'s answer goes
	// to out[i].
	src     []graph.NodeID
	out     []core.Result
	walks   [][]visit      // walks[i]: src[i]'s visits in walk order
	errs    []error        // errs[i]: src[i]'s walk error
	missing []graph.NodeID // unpublished tables the walks visited, ascending
	held    []*share       // held[i*groups+g]: src[i]'s range group g, until assembled
}

var queryPool = pool.New[query]("prsim.pool.query")

// rangeScratch is the pooled accumulator of one work item: a dense
// score slab indexed by node id minus the item's first id, epoch stamps
// so neither needs a clear between items, and the touched nodes of
// each of the item's ranges in first-touch order (touched[r-r0] for
// range r). A stamp is one byte, an eighth of the slab's size; the
// stamps are cleared once every 255 items.
type rangeScratch struct {
	acc     []float64
	mark    []uint8
	epoch   uint8
	touched [maxRanges][]graph.NodeID
}

// share is one work item's part of a source's answer, held until the
// source is assembled: the item's touched nodes range by range, in
// first-touch order within a range, their scores, and whether the
// source is among them.
type share struct {
	nodes      []graph.NodeID
	scores     []float64
	seesSource bool
}

// sharePool recycles item shares across items, queries and indexes.
var sharePool = pool.New[share]("prsim.pool.share")

// scratchPool recycles item accumulators across items, queries and
// indexes.
var scratchPool = pool.New[rangeScratch]("prsim.pool.scratch")

// reset sizes s for n node ids and starts a new epoch, so every mark
// from an earlier item reads as untouched.
func (s *rangeScratch) reset(n int) {
	s.acc = resize(s.acc, n)
	s.mark = resize(s.mark, n)
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could alias, clear them all
		clear(s.mark[:cap(s.mark)]) // past n too: a later item may span more
		s.epoch = 1
	}
	for r := range s.touched {
		s.touched[r] = s.touched[r][:0]
	}
}

// resize returns s with length n, reusing its capacity and, when it
// grows, keeping the elements past its old length (a reused inner
// buffer stays reused).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// SingleSource estimates sim(u, ·) without cancellation.
func (ix *Index) SingleSource(u graph.NodeID) (map[graph.NodeID]float64, error) {
	return ix.SingleSourceCtx(context.Background(), u)
}

// SingleSourceCtx is the map view of SingleSourceResult.
func (ix *Index) SingleSourceCtx(ctx context.Context, u graph.NodeID) (map[graph.NodeID]float64, error) {
	r, err := ix.SingleSourceResult(ctx, u)
	if err != nil {
		return nil, err
	}
	return r.Map(), nil
}

// SingleSourceResult estimates sim(u, ·) at the index's own Workers;
// see MultiSourceResults.
func (ix *Index) SingleSourceResult(ctx context.Context, u graph.NodeID) (core.Result, error) {
	var out [1]core.Result
	err := ix.answer(ctx, []graph.NodeID{u}, ix.opt.Workers, out[:])
	return out[0], err
}

// MultiSource is the map view of MultiSourceResults at the index's own
// Workers: every entry is a map of its own, duplicates included.
func (ix *Index) MultiSource(ctx context.Context, sources []graph.NodeID) ([]map[graph.NodeID]float64, error) {
	rs, err := ix.MultiSourceResults(ctx, sources, ix.opt.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]map[graph.NodeID]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Map()
	}
	return out, nil
}

// MultiSourceResults estimates sim(u, ·) for each source u on up to
// workers goroutines (below 2, serially); a single-source query is a
// batch of one. Each answer is bit-identical at every width: n_q source
// walks realize the source-side distribution, and each visited (step,
// node) adds the node's table column at that step, weighted by
// d(node), in visit order. Duplicate sources are computed once and
// share one Result. Safe for concurrent use.
//
// A query runs in three phases, each a fan-out of its own:
//  1. walk: each unique source's walks, on its own rng.FastSplit
//     stream, record their visits; the walks read only the graph.
//  2. build: every table some walk visited that is not yet published
//     is compiled (the per-node singleflight coalesces it with any
//     other query's build) and cached for later queries.
//  3. accumulate: the node ids are cut into fixed ranges (see
//     maxRanges), and each (source, group of consecutive ranges) item
//     adds up the columns of the source's visits in visit order,
//     restricted to its ids by two binary searches over the
//     origin-sorted column, so every node gets the same adds in the
//     same order as a serial loop. A source's items are then joined
//     into its answer.
//
// A batch runs the phases over chunks of its unique sources
// (chunkPerWorker per worker), which bounds the visits held at once.
//
// It checks ctx every 64 walks and before each tail build, so a query
// past its deadline starts no further build and overruns it by at most
// the builds already running, one per worker; a started build finishes
// and publishes, since other queries may be waiting on it.
//
// A result lists every node some walk reached, range by range and in
// first-touch order within a range, then the source (score 1) if no
// walk came back to it. The order does not depend on the width.
func (ix *Index) MultiSourceResults(ctx context.Context, sources []graph.NodeID, workers int) ([]core.Result, error) {
	out := make([]core.Result, len(sources))
	if err := ix.answer(ctx, sources, workers, out); err != nil {
		return nil, err
	}
	return out, nil
}

// chunkPerWorker bounds how many unique sources of a batch run the
// three phases together, per worker: a chunk holds every visit of its
// sources at once, which at a large n_q is megabytes per source. Chunks
// run one after another; a result never depends on the cut.
const chunkPerWorker = 16

// answer runs MultiSourceResults into out, one entry per source.
func (ix *Index) answer(ctx context.Context, sources []graph.NodeID, workers int, out []core.Result) error {
	n := ix.g.NumNodes()
	for _, u := range sources {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("prsim: source %d out of range for n=%d", u, n)
		}
	}
	q := queryPool.Get()
	defer q.release()
	q.uniq = append(q.uniq[:0], sources...)
	slices.Sort(q.uniq)
	q.uniq = slices.Compact(q.uniq)
	q.res = resize(q.res, len(q.uniq))
	chunk := chunkPerWorker * max(workers, 1)
	for lo := 0; lo < len(q.uniq); lo += chunk {
		hi := min(lo+chunk, len(q.uniq))
		q.src, q.out = q.uniq[lo:hi], q.res[lo:hi]
		if err := ix.run(ctx, q, workers); err != nil {
			return err
		}
	}
	for i, u := range sources {
		j, _ := slices.BinarySearch(q.uniq, u)
		out[i] = q.res[j]
	}
	return nil
}

// run answers the chunk of sources q.src into q.out in the three
// phases.
func (ix *Index) run(ctx context.Context, q *query, workers int) error {
	k := len(q.src)
	q.walks = resize(q.walks, k)
	q.errs = resize(q.errs, k)

	// Phase 1: walks (one source runs inline, sparing the fan-out's
	// closure).
	if k == 1 {
		q.walks[0], q.errs[0] = ix.walk(ctx, q.src[0], q.walks[0][:0])
	} else if err := par.ForEachCtx(ctx, k, workers, func(i int) {
		q.walks[i], q.errs[i] = ix.walk(ctx, q.src[i], q.walks[i][:0])
	}); err != nil {
		return err
	}
	var visits, hubHits int64
	q.missing = q.missing[:0]
	for i, err := range q.errs {
		if err != nil {
			return err
		}
		visits += int64(len(q.walks[i]))
		for _, v := range q.walks[i] {
			if ix.eager[v.node] {
				hubHits++
			}
			if ix.tables[v.node].Load() == nil {
				q.missing = append(q.missing, v.node)
			}
		}
	}
	ix.visits.Add(visits)
	ix.hubHits.Add(hubHits)
	statVisits.Add(uint64(visits))
	statHubHits.Add(uint64(hubHits))

	// Phase 2: tail builds, each behind its own ctx check.
	if len(q.missing) > 0 {
		slices.Sort(q.missing)
		q.missing = slices.Compact(q.missing)
		if err := par.ForEachCtx(ctx, len(q.missing), workers, func(i int) {
			if ctx.Err() == nil {
				ix.ensure(q.missing[i])
			}
		}); err != nil {
			return err
		}
	}

	// Phase 3: accumulation by (source, range group), then assembly.
	groups := ix.rangeGroups(q, workers)
	q.held = resize(q.held, k*groups)
	if err := par.ForEachCtx(ctx, k*groups, workers, func(i int) {
		ix.accumulate(q, i/groups, i%groups, groups)
	}); err != nil {
		return err
	}
	if groups > 1 {
		for i, u := range q.src {
			q.out[i] = assemble(u, q.held[i*groups:(i+1)*groups])
		}
	}
	return nil
}

// release drops the query's references to answers and errors and
// returns it to the pool.
func (q *query) release() {
	for _, s := range q.held { // a canceled query's unassembled groups
		sharePool.Put(s)
	}
	clear(q.held)
	clear(q.res)
	clear(q.errs)
	q.src, q.out = nil, nil
	queryPool.Put(q)
}

// walk samples u's n_q truncated √c-walks on u's own stream, appending
// their visits to vs. It checks ctx before the first walk and every 64
// walks after.
func (ix *Index) walk(ctx context.Context, u graph.NodeID, vs []visit) ([]visit, error) {
	r := rng.FastSplit(ix.opt.Seed, uint64(u))
	for k := 0; k < ix.nq; k++ {
		if k&63 == 0 {
			if err := ctx.Err(); err != nil {
				return vs, err
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
			vs = append(vs, visit{step: int32(step), node: cur})
		}
	}
	return vs, nil
}

// group returns range group g of groups: its ranges [r0, r1) and node
// ids [lo, hi).
func (ix *Index) group(g, groups int) (r0, r1, lo, hi int) {
	ranges := ix.ranges()
	r0, r1 = g*ranges/groups, (g+1)*ranges/groups
	lo, hi = r0<<ix.shift, ix.g.NumNodes()
	if r1 < ranges {
		hi = r1 << ix.shift
	}
	return r0, r1, lo, hi
}

// accumulate adds the columns of source i's visits, in visit order,
// restricted to range group g's node ids, into a pooled accumulator,
// then writes the touched nodes range by range with their scores
// acc/n_q: into the source's Result if the group is its only one, else
// into a share for assemble. Every visited table is published by now.
func (ix *Index) accumulate(q *query, i, g, groups int) {
	r0, r1, lo, hi := ix.group(g, groups)
	s := scratchPool.Get()
	s.reset(hi - lo)
	acc, mark, epoch, base := s.acc, s.mark[:len(s.acc)], s.epoch, graph.NodeID(lo)
	shift, touched := ix.shift, s.touched[:r1-r0]
	for _, v := range q.walks[i] {
		t := ix.tables[v.node].Load()
		if int(v.step) > t.levels() {
			continue
		}
		a, b := t.off[v.step-1], t.off[v.step]
		origins, probs := t.origins[a:b], t.probs[a:b]
		if groups > 1 {
			first, _ := slices.BinarySearch(origins, graph.NodeID(lo))
			end, _ := slices.BinarySearch(origins[first:], graph.NodeID(hi))
			origins, probs = origins[first:first+end], probs[first:first+end]
		}
		dw := t.d
		probs = probs[:len(origins)] // one bounds check for the loop
		for j, w := range origins {
			x := uint(w - base)
			if mark[x] != epoch {
				mark[x] = epoch
				acc[x] = 0
				l := &touched[int(w>>shift)-r0]
				*l = append(*l, w)
			}
			acc[x] += probs[j] * dw
		}
	}

	src, size := q.src[i], 0
	for _, l := range touched {
		size += len(l)
	}
	seen := int(src) >= lo && int(src) < hi && mark[int(src)-lo] == epoch
	if groups == 1 { // the source's only item: write its Result directly
		if !seen {
			size++
		}
		nodes, scores := make([]graph.NodeID, size), make([]float64, size)
		ix.emit(s, src, r1-r0, lo, nodes, scores)
		if !seen {
			nodes[size-1], scores[size-1] = src, 1
		}
		scratchPool.Put(s)
		q.out[i] = core.NewResult(nodes, scores)
		return
	}
	out := sharePool.Get()
	out.seesSource = seen
	out.nodes = resize(out.nodes, size)
	out.scores = resize(out.scores, size)
	ix.emit(s, src, r1-r0, lo, out.nodes, out.scores)
	scratchPool.Put(s)
	q.held[i*groups+g] = out
}

// emit writes the nodes listed in s's first ranges touched lists (an
// item whose ids start at lo), range by range and in first-touch order
// within a range, into nodes, and their scores acc/n_q (1 for the
// source) into scores.
func (ix *Index) emit(s *rangeScratch, src graph.NodeID, ranges, lo int, nodes []graph.NodeID, scores []float64) {
	inv := 1 / float64(ix.nq)
	at := 0
	for _, l := range s.touched[:ranges] {
		copy(nodes[at:], l)
		for j, w := range l {
			scores[at+j] = s.acc[int(w)-lo] * inv
			if w == src {
				scores[at+j] = 1
			}
		}
		at += len(l)
	}
}

// assemble joins a source's range groups, in order, into its Result,
// appends the source with score 1 if no walk reached it, and returns
// the groups' shares to the pool.
func assemble(src graph.NodeID, held []*share) core.Result {
	total, seen := 0, false
	for _, s := range held {
		total += len(s.nodes)
		seen = seen || s.seesSource
	}
	if !seen {
		total++
	}
	nodes := make([]graph.NodeID, 0, total)
	scores := make([]float64, 0, total)
	for g, s := range held {
		nodes = append(nodes, s.nodes...)
		scores = append(scores, s.scores...)
		sharePool.Put(s)
		held[g] = nil
	}
	if !seen {
		nodes = append(nodes, src)
		scores = append(scores, 1)
	}
	return core.NewResult(nodes, scores)
}
