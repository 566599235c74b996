package core

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"crashsim/internal/cache"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
	"crashsim/internal/par"
	"crashsim/internal/temporal"
)

// TemporalQuery is the per-snapshot filtering predicate of a temporal
// SimRank query (Definition 3). Concrete trend and threshold queries live
// in internal/tempq; CrashSim-T only needs the incremental Keep decision.
type TemporalQuery interface {
	// Name identifies the query in reports.
	Name() string
	// Keep reports whether a candidate with score cur at snapshot t and
	// score prev at snapshot t-1 remains in the candidate set. At t = 0,
	// prev is NaN.
	Keep(t int, prev, cur float64) bool
}

// TemporalOptions tunes CrashSim-T beyond the static Params.
type TemporalOptions struct {
	// DisableDeltaPruning turns off the affected-area rule (Property 1).
	DisableDeltaPruning bool
	// DisableDiffPruning turns off the reverse-tree comparison rule
	// (Property 2).
	DisableDiffPruning bool
	// TreeTolerance is the per-entry tolerance when comparing reverse
	// reachable trees between snapshots. Default 1e-12.
	TreeTolerance float64
	// PatchGate bounds the affected closure of a tree patch as a
	// fraction of the previous tree's support; past it the source tree
	// is rebuilt from scratch (a patch re-expanding most of the tree
	// costs more than the rebuild it replaces). Default 0.25.
	PatchGate float64
	// CandidateCacheBytes bounds the candidate-tree cache's accounted
	// memory, so Ω-sized histories cannot grow without bound. Default
	// 32 MiB. Non-positive values after defaulting disable the cache.
	CandidateCacheBytes int64
	// Observer, when set, is invoked after every snapshot with the
	// snapshot index and the scores of the current candidate set
	// (before the query filter is applied). The map must not be
	// retained or modified. It powers aggregate queries such as
	// durable top-k that need the whole score trajectory.
	Observer func(t int, scores Scores)

	// rebuildEachSnapshot is a test hook: it rebuilds the source tree
	// from scratch and recompiles its frozen form on every snapshot,
	// instead of patching the previous tree and carrying the compiled
	// form across tree-stable transitions. Results are bit-identical
	// either way; the equivalence tests run both pipelines against each
	// other.
	rebuildEachSnapshot bool
}

func (o TemporalOptions) withDefaults() TemporalOptions {
	if o.TreeTolerance == 0 {
		o.TreeTolerance = 1e-12
	}
	if o.PatchGate == 0 {
		o.PatchGate = 0.25
	}
	if o.CandidateCacheBytes == 0 {
		o.CandidateCacheBytes = 32 << 20
	}
	return o
}

// TemporalStats counts the work CrashSim-T did and the work the pruning
// rules avoided; the Fig 7 harness reports them alongside timings.
// Every field except CandTreeHits/CandTreeMisses is deterministic for a
// fixed seed and any worker count; the cache-traffic pair may shift
// with scheduling because byte-accounted eviction depends on insertion
// order (the determinism test masks exactly those two fields).
type TemporalStats struct {
	Snapshots       int // snapshots processed
	Evaluated       int // candidate scores recomputed via CrashSim
	ReusedDelta     int // candidate scores reused thanks to delta pruning
	ReusedDiff      int // candidate scores reused thanks to difference pruning
	TreeStableSteps int // snapshot transitions with an unchanged source tree
	TreePatched     int // transitions whose source tree was delta-patched
	TreeRebuilt     int // transitions whose source tree was rebuilt from scratch
	FrozenReused    int // estimates that reused the carried compiled tree
	CandTreeHits    int // diff-pruning trees served from the candidate cache
	CandTreeMisses  int // diff-pruning trees recomputed for the previous snapshot
}

// TemporalResult is the outcome of a temporal SimRank query.
type TemporalResult struct {
	// Omega is the final candidate set: every node whose score satisfied
	// the query at every snapshot of the interval, sorted by id.
	Omega []graph.NodeID
	// Final holds the last snapshot's scores for the surviving nodes.
	Final Scores
	// Stats describes the work performed.
	Stats TemporalStats
}

// diffDecision records one candidate's difference-pruning outcome so
// the parallel comparison loop writes disjoint slots and the stats
// merge afterwards runs serially in candidate order.
type diffDecision struct {
	equal bool // candidate tree unchanged within tolerance
	hit   bool // previous-snapshot tree came from the candidate cache
}

// Per-candidate pruning decisions. decRecompute must be the zero value:
// the decision array is cleared to it at every snapshot.
const (
	decRecompute uint8 = iota
	decReuseDelta
	decReuseDiff
)

// minMembershipParallel is the candidate count below which the
// affected-area membership partition stays inline: the test is one load
// and AND per candidate, so fan-out only pays off on large sets.
const minMembershipParallel = 64

// candTreeEntry is one cached candidate tree, tagged with the version
// of the snapshot it was built on. A lookup only counts when the tag
// matches the previous snapshot's version — equal versions mean an
// identical edge set (temporal.Cursor stamps versions from the working
// graph's mutation count), so a tagged tree is bit-identical to what
// RevReach would recompute.
type candTreeEntry struct {
	tree    *ReachTree
	version uint64
}

// CrashSimT answers a temporal SimRank query (Algorithm 3) over the
// whole history of tg: it starts from the full node set, recomputes per
// snapshot only the scores the pruning rules cannot prove unchanged, and
// filters the candidate set with the query predicate after every
// snapshot.
func CrashSimT(tg *temporal.Graph, u graph.NodeID, q TemporalQuery, p Params, topt TemporalOptions) (*TemporalResult, error) {
	return CrashSimTCtx(context.Background(), tg, u, q, p, topt)
}

// CrashSimTCtx is CrashSimT with cancellation, checked between
// snapshots, inside the pruning fan-outs and inside the per-candidate
// sampling loops. The per-snapshot pipeline is incremental: the source
// tree is delta-patched from the previous snapshot's (full rebuild only
// past the patch gate), surviving candidates carry their reverse trees
// forward through a byte-bounded cache so difference pruning does one
// RevReach per candidate instead of two, the pruning loops fan out
// through par.ForEachCtx (scores stay bit-identical for any worker
// count: every candidate owns its random stream and decisions merge in
// candidate order), and tree-stable transitions reuse the previously
// compiled frozen form instead of recompiling it.
func CrashSimTCtx(ctx context.Context, tg *temporal.Graph, u graph.NodeID, q TemporalQuery, p Params, topt TemporalOptions) (*TemporalResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pp := p.withDefaults()
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	if q == nil {
		return nil, fmt.Errorf("core: temporal query must not be nil")
	}
	to := topt.withDefaults()
	n := tg.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("core: source %d out of range for n=%d", u, n)
	}
	cur, err := tg.Cursor()
	if err != nil {
		return nil, err
	}

	res := &TemporalResult{}
	nr := pp.iterations(n)
	pooled := !pp.DisablePooling

	var carry *frozenCarry
	if !to.rebuildEachSnapshot {
		carry = &frozenCarry{pooled: pooled}
		defer carry.release()
	}
	var candTrees *cache.Cache
	if to.CandidateCacheBytes > 0 {
		// The cache is run-scoped, so its metrics go to a private
		// registry instead of polluting the process-wide cache.* series
		// the serving layer exports; CandTreeHits/Misses carry the same
		// information per run.
		candTrees, err = cache.New(cache.Config{MaxBytes: to.CandidateCacheBytes, Metrics: obs.NewRegistry()})
		if err != nil {
			return nil, err
		}
	}
	ts := acquireTemporalScratch(n, pooled)
	defer ts.release(pooled)

	// Snapshot 0: full single-source computation and initial filter. The
	// candidate list is built in node order once and maintained sorted
	// in place from here on — later snapshots only delete from it.
	//
	// The run owns its source trees: treePrev and one spare arena form a
	// double buffer. A transition that produces a new tree writes it
	// into the spare, and the tree it replaces becomes the next spare,
	// so the patch loop stops allocating once both arenas have grown.
	// Arenas are recycled, so a pointer no longer identifies a tree's
	// contents; epoch does instead. It moves whenever the source tree is
	// replaced, and the frozen carry keys its reuse on it.
	gPrev := cur.Freeze()
	treePrev, err := BuildTree(gPrev, u, pp)
	if err != nil {
		return nil, err
	}
	var spare *ReachTree
	var epoch uint64
	scoresPrev, err := runEstimate(ctx, carry, gPrev, u, nil, pp, treePrev, epoch, res)
	if err != nil {
		return nil, err
	}
	res.Stats.Snapshots++
	res.Stats.Evaluated += n
	if to.Observer != nil {
		to.Observer(0, scoresPrev)
	}
	omega := make(map[graph.NodeID]float64, n)
	candidates := ts.candidates[:0]
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if s := scoresPrev[id]; q.Keep(0, math.NaN(), s) {
			omega[id] = s
			candidates = append(candidates, id)
		}
	}
	ts.candidates = candidates

	for cur.Next() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := cur.T()
		delta := tg.Delta(t - 1)
		gCur := cur.Freeze()
		res.Stats.Snapshots++

		// Source tree: an empty delta leaves the graph — and therefore
		// the tree, bit for bit — untouched, so the previous tree (and
		// its compiled form) is reused outright. Otherwise the tree is
		// delta-patched from the previous one, which yields the diff as
		// a byproduct; a full rebuild plus DiffNodes sweep remains the
		// fallback when the patch gate trips or patching does not apply.
		// The rebuildEachSnapshot hook skips the empty-delta shortcut
		// too, so it reproduces the rebuild-every-snapshot pipeline
		// exactly.
		var tree *ReachTree
		var treeDiff []graph.NodeID
		switch {
		case to.rebuildEachSnapshot:
		case delta.Size() == 0:
			tree = treePrev
		case !pp.NonBacktracking:
			if nt, diff, ok := treePrev.Patch(spare, gCur, delta.Add, delta.Del, pp, to.TreeTolerance, to.PatchGate); ok {
				tree, treeDiff = nt, diff
				res.Stats.TreePatched++
			}
		}
		if tree == nil {
			tree = buildTreeInto(spare, gCur, u, pp)
			treeDiff = tree.DiffNodes(treePrev, to.TreeTolerance)
			res.Stats.TreeRebuilt++
		}
		if tree != treePrev {
			spare = treePrev
			epoch++
		}
		if len(treeDiff) == 0 {
			res.Stats.TreeStableSteps++
		}

		nc := len(candidates)
		omegaBits := newNodeBitset(ts.omegaBits, n)
		ts.omegaBits = omegaBits
		eOmega := countOmegaEdges(gCur, candidates, omegaBits)
		dec := growUint8(ts.dec, nc)
		clear(dec)
		ts.dec = dec

		// Delta pruning (Theorem 2 / Property 1): a candidate's score
		// can only change if (i) its walks can hit a changed source-tree
		// entry, or (ii) its own walk distribution changed — both only
		// possible inside the forward reach of the altered tree nodes
		// and of the changed edges' heads. Candidates outside that
		// affected area reuse the previous snapshot's score, which is
		// bit-exact because each candidate owns its random stream.
		if !to.DisableDeltaPruning &&
			float64(delta.Size())*float64(eOmega) < float64(nc)*float64(nr) {
			affected := affectedArea(gCur, tg.Directed(), delta, treeDiff, pp.Lmax, ts)
			workers := pp.Workers
			if nc < minMembershipParallel {
				workers = 1
			}
			if err := par.ForEachCtx(ctx, nc, workers, func(i int) {
				if !affected.Has(candidates[i]) {
					dec[i] = decReuseDelta
				}
			}); err != nil {
				return nil, err
			}
		}

		// Difference pruning (Property 2): when the source tree is
		// stable and the candidate subgraph is small, compare each
		// remaining candidate's own reverse reachable tree across the
		// two snapshots and skip the unchanged ones. (With a changed
		// source tree this rule is unsound — a candidate's crash
		// probabilities change even if its walk distribution does not —
		// hence the gate, which is also Algorithm 3 line 7.) The current
		// tree always needs computing; the previous one is served from
		// the candidate cache when a version-matching entry survives,
		// halving the RevReach work per carried candidate. Comparisons
		// fan out across workers; decisions land in per-candidate slots
		// and merge serially in candidate order, so everything except
		// the cache-traffic tallies is independent of the worker count.
		if !to.DisableDiffPruning && len(treeDiff) == 0 && eOmega < nr {
			dd := growDiffDecisions(ts.dd, nc)
			ts.dd = dd
			prevVersion, curVersion := gPrev.Version(), gCur.Version()
			if err := par.ForEachCtx(ctx, nc, pp.Workers, func(i int) {
				if dec[i] != decRecompute {
					return
				}
				v := candidates[i]
				tv := RevReach(gCur, v, pp.C, pp.Lmax, pp.Transition)
				var tvPrev *ReachTree
				hit := false
				if candTrees != nil {
					if e, ok := candTrees.Get(candKey(v)); ok {
						if ent := e.(candTreeEntry); ent.version == prevVersion {
							tvPrev, hit = ent.tree, true
						}
					}
				}
				if tvPrev == nil {
					tvPrev = RevReach(gPrev, v, pp.C, pp.Lmax, pp.Transition)
				}
				dd[i] = diffDecision{equal: tv.Equal(tvPrev, to.TreeTolerance), hit: hit}
				if candTrees != nil {
					candTrees.Put(candKey(v), candTreeEntry{tree: tv, version: curVersion}, tv.ApproxBytes())
				}
			}); err != nil {
				return nil, err
			}
			for i := 0; i < nc; i++ {
				if dec[i] != decRecompute {
					continue
				}
				if dd[i].hit {
					res.Stats.CandTreeHits++
				} else {
					res.Stats.CandTreeMisses++
				}
				if dd[i].equal {
					dec[i] = decReuseDiff
				}
			}
		}

		recompute := ts.recompute[:0]
		for i := 0; i < nc; i++ {
			switch dec[i] {
			case decReuseDelta:
				res.Stats.ReusedDelta++
			case decReuseDiff:
				res.Stats.ReusedDiff++
			default:
				recompute = append(recompute, candidates[i])
			}
		}
		ts.recompute = recompute

		var fresh Scores
		if len(recompute) > 0 {
			fresh, err = runEstimate(ctx, carry, gCur, u, recompute, pp, tree, epoch, res)
			if err != nil {
				return nil, err
			}
			res.Stats.Evaluated += len(recompute)
		}

		// Merge scores, observe, and filter the sorted candidate list in
		// place (writes trail reads, so the delete-in-place is safe and
		// the list needs no re-sort).
		var observed Scores
		if to.Observer != nil {
			observed = make(Scores, nc)
		}
		kept := candidates[:0]
		for i := 0; i < nc; i++ {
			v := candidates[i]
			prev := omega[v]
			s := prev
			if dec[i] == decRecompute {
				s = fresh[v]
			}
			if observed != nil {
				observed[v] = s
			}
			if q.Keep(t, prev, s) {
				omega[v] = s
				kept = append(kept, v)
			} else {
				delete(omega, v)
			}
		}
		if to.Observer != nil {
			to.Observer(t, observed)
		}
		candidates = kept
		gPrev, treePrev = gCur, tree
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}

	res.Omega = make([]graph.NodeID, len(candidates))
	copy(res.Omega, candidates)
	res.Final = make(Scores, len(candidates))
	for _, v := range candidates {
		res.Final[v] = omega[v]
	}
	statTemporalSnapshots.Add(uint64(res.Stats.Snapshots))
	statTemporalEvaluated.Add(uint64(res.Stats.Evaluated))
	statTemporalReusedDelta.Add(uint64(res.Stats.ReusedDelta))
	statTemporalReusedDiff.Add(uint64(res.Stats.ReusedDiff))
	statTemporalTreePatched.Add(uint64(res.Stats.TreePatched))
	statTemporalTreeRebuilt.Add(uint64(res.Stats.TreeRebuilt))
	statTemporalFrozenReused.Add(uint64(res.Stats.FrozenReused))
	statTemporalCandHits.Add(uint64(res.Stats.CandTreeHits))
	statTemporalCandMisses.Add(uint64(res.Stats.CandTreeMisses))
	return res, nil
}

// runEstimate dispatches one snapshot's estimate: through the frozen
// carry (reusing the compiled source tree across tree-stable
// transitions, keyed on the tree epoch), or, when the run has none
// (rebuildEachSnapshot), through the self-contained static path, which
// compiles and releases per call.
func runEstimate(ctx context.Context, carry *frozenCarry, g *graph.Graph, u graph.NodeID, omega []graph.NodeID, pp Params, tree *ReachTree, epoch uint64, res *TemporalResult) (Scores, error) {
	if carry == nil {
		return estimate(ctx, g, u, omega, pp, tree)
	}
	ft, reused := carry.prepare(g, tree, epoch)
	if reused {
		res.Stats.FrozenReused++
	}
	return estimateWith(ctx, g, u, omega, pp, ft)
}

// candKey renders a candidate id as its cache key.
func candKey(v graph.NodeID) string { return strconv.Itoa(int(v)) }

// affectedArea returns Theorem 2's affected area as one multi-source
// forward BFS of depth lmax over a dense bitset: the reach of (i) the
// altered nodes of the source's reverse reachable tree and (ii) the
// nodes whose in-neighbor lists changed (each changed edge's head for
// directed graphs, both endpoints for undirected ones). A candidate
// outside this set samples identical walks and consults identical crash
// probabilities, so its score is provably unchanged.
func affectedArea(g *graph.Graph, directed bool, d temporal.Delta, treeDiff []graph.NodeID, lmax int, ts *temporalScratch) nodeBitset {
	sources := append(ts.sources[:0], treeDiff...)
	for _, set := range [][]graph.Edge{d.Add, d.Del} {
		for _, e := range set {
			sources = append(sources, e.Y)
			if !directed {
				sources = append(sources, e.X)
			}
		}
	}
	reach := newNodeBitset(ts.reach, g.NumNodes())
	ts.frontier, ts.next = forwardReachBits(g, sources, lmax, reach, ts.frontier, ts.next)
	ts.reach, ts.sources = reach, sources
	return reach
}

// countOmegaEdges returns |E(Ω)|: the number of edges of g with both
// endpoints in the candidate set. member must be a zeroed bitset sized
// to the graph; the membership test is then one load and AND per
// in-edge instead of a hash probe (the micro-benchmark measures the
// difference against the old map form).
func countOmegaEdges(g *graph.Graph, cands []graph.NodeID, member nodeBitset) int {
	for _, v := range cands {
		member.Add(v)
	}
	count := 0
	for _, v := range cands {
		for _, x := range g.In(v) {
			if member.Has(x) {
				count++
			}
		}
	}
	if !g.Directed() {
		count /= 2
	}
	return count
}

// growUint8 and growDiffDecisions are growUint64's siblings for the
// pruning decision arrays.
func growUint8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growDiffDecisions(s []diffDecision, n int) []diffDecision {
	if cap(s) < n {
		return make([]diffDecision, n)
	}
	return s[:n]
}
