package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"crashsim/internal/graph"
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
	// DisableDiffPruning turns off the unchanged-reverse-tree rule
	// (Property 2). It reuses a candidate while the source tree is
	// stable and the candidate lies outside the forward reach, depth
	// Lmax−1, of the changed edges' heads: there its reverse tree
	// cannot have changed. Delta pruning reuses every such candidate
	// first, so this rule only counts when delta pruning is off.
	DisableDiffPruning bool
	// Observer, when set, is invoked after every snapshot with the
	// snapshot index and the scores of the current candidate set
	// (before the query filter is applied). The map must not be
	// retained or modified. It powers aggregate queries such as
	// durable top-k that need the whole score trajectory.
	Observer func(t int, scores Scores)

	// rebuildEachSnapshot is a test hook: it rebuilds the source tree on
	// every snapshot and replaces the previous one, instead of reusing
	// it across empty deltas and bit-identical rebuilds. Results are
	// bit-identical either way; the equivalence tests run both pipelines
	// against each other.
	rebuildEachSnapshot bool
}

// treeTolerance is the per-entry tolerance when comparing reverse
// reachable trees between snapshots.
const treeTolerance = 1e-12

// TemporalStats counts the work CrashSim-T did and the work the pruning
// rules avoided; the Fig 7 harness reports them alongside timings.
// Every field is deterministic for a fixed seed and any worker count.
type TemporalStats struct {
	Snapshots       int // snapshots processed
	Evaluated       int // candidate scores recomputed via CrashSim
	ReusedDelta     int // candidate scores reused thanks to delta pruning
	ReusedDiff      int // candidate scores reused thanks to difference pruning; 0 whenever delta pruning is on
	TreeStableSteps int // snapshot transitions with an unchanged source tree
	TreeRebuilt     int // transitions whose source tree was rebuilt: every non-empty delta
	FrozenReused    int // estimates that reused the previous estimate's source tree

	// Deprecated: always 0. CrashSim-T rebuilds the source tree on
	// every non-empty delta instead of patching it.
	TreePatched int

	// Deprecated: always 0. CrashSim-T keeps no candidate-tree cache.
	CandTreeHits int
	// Deprecated: always 0. CrashSim-T keeps no candidate-tree cache.
	CandTreeMisses int
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

// CrashSimT answers a temporal SimRank query (Algorithm 3) over the
// whole history of tg: it starts from the full node set, recomputes per
// snapshot only the scores the pruning rules cannot prove unchanged, and
// filters the candidate set with the query predicate after every
// snapshot.
func CrashSimT(tg *temporal.Graph, u graph.NodeID, q TemporalQuery, p Params, topt TemporalOptions) (*TemporalResult, error) {
	return CrashSimTCtx(context.Background(), tg, u, q, p, topt)
}

// CrashSimTCtx is CrashSimT with cancellation, checked between
// snapshots and inside the per-candidate sampling loops. The
// per-snapshot pipeline is incremental: the source tree is rebuilt only
// when the snapshot changed and kept, probe index included, when the
// rebuild is bit-identical to it; one forward BFS decides both pruning
// rules. Scores are bit-identical for any worker count: every candidate
// owns its random stream.
func CrashSimTCtx(ctx context.Context, tg *temporal.Graph, u graph.NodeID, q TemporalQuery, p Params, to TemporalOptions) (*TemporalResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q == nil {
		return nil, fmt.Errorf("core: temporal query must not be nil")
	}
	n := tg.NumNodes()
	pp, nr, err := p.resolve(n)
	if err != nil {
		return nil, err
	}
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("core: source %d out of range for n=%d", u, n)
	}
	cur, err := tg.Cursor()
	if err != nil {
		return nil, err
	}

	res := &TemporalResult{}
	ts := acquireTemporalScratch(n)
	defer temporalPool.Put(ts)

	// Snapshot 0: full single-source computation and initial filter. The
	// candidate list is built in node order once and maintained sorted
	// in place from here on — later snapshots only delete from it.
	//
	// The run owns its source trees: treePrev and one spare arena form a
	// double buffer. A transition that produces a new tree writes it
	// into the spare, and the tree it replaces becomes the next spare,
	// so the rebuilds stop allocating once both arenas have grown.
	// Arenas are recycled, so a pointer no longer identifies a tree's
	// contents; epoch does instead. It moves whenever the source tree is
	// replaced, and an estimate under the epoch of the previous one
	// counts as tree reuse (FrozenReused).
	g0 := cur.Freeze()
	treePrev, err := BuildTree(g0, u, pp)
	if err != nil {
		return nil, err
	}
	spare := new(ReachTree)
	var epoch uint64
	first, err := estimateSource(ctx, g0, u, treePrev, nil, pp, nr)
	if err != nil {
		return nil, err
	}
	estEpoch := epoch
	res.Stats.Snapshots++
	res.Stats.Evaluated += n
	if to.Observer != nil {
		to.Observer(0, first.Map())
	}
	omega := make(map[graph.NodeID]float64, n)
	candidates := ts.candidates[:0]
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		// An all-nodes result lists node v at entry v.
		if s := first.scores[v]; q.Keep(0, math.NaN(), s) {
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

		// Source tree: an empty delta leaves the graph, and therefore the
		// tree, bit for bit untouched, so the previous tree is reused
		// outright. Otherwise the tree is rebuilt into the spare arena
		// and diffed against the previous one; a rebuild that is bit
		// identical to it is dropped, so the previous tree and its epoch
		// stay. The rebuildEachSnapshot hook skips both reuses, so it
		// reproduces the rebuild-every-snapshot pipeline exactly.
		tree := treePrev
		var treeDiff []graph.NodeID
		if delta.Size() > 0 || to.rebuildEachSnapshot {
			// A delta moves few entries, so the previous tree's support
			// sizes the arena: it grows once here, not level by level.
			spare.nodes = slices.Grow(spare.nodes[:0], treePrev.Support())
			spare.probs = slices.Grow(spare.probs[:0], treePrev.Support())
			nt := buildTreeInto(spare, gCur, u, pp)
			res.Stats.TreeRebuilt++
			changed := nodeBitset(grow(ts.changed, indexWords(n)))
			same := nt.diffInto(treePrev, treeTolerance, changed)
			treeDiff = changed.appendNodes(ts.treeDiff[:0])
			ts.changed, ts.treeDiff = changed, treeDiff
			if same && !to.rebuildEachSnapshot {
				spare = nt
			} else {
				tree, spare = nt, treePrev
				epoch++
			}
		}
		if len(treeDiff) == 0 {
			res.Stats.TreeStableSteps++
		}

		// Both pruning rules are one reach test. A candidate outside the
		// affected area (Theorem 2) samples identical walks and consults
		// identical crash probabilities, so its previous score is still
		// bit-exact: each candidate owns its random stream. Delta pruning
		// (Property 1) reuses every such candidate. Difference pruning
		// (Property 2) applies only while the source tree is stable;
		// then the area is the changed heads' reach alone, and a
		// candidate outside it has an unchanged reverse tree.
		var affected nodeBitset // nil: no rule applies
		if !to.DisableDeltaPruning || (!to.DisableDiffPruning && len(treeDiff) == 0) {
			affected = affectedArea(gCur, tg.Directed(), delta, treeDiff, pp.Lmax, ts)
		}
		recompute := ts.recompute[:0]
		for _, v := range candidates {
			if affected == nil || affected.Has(v) {
				recompute = append(recompute, v)
			}
		}
		ts.recompute = recompute
		nc := len(candidates)
		if to.DisableDeltaPruning {
			res.Stats.ReusedDiff += nc - len(recompute)
		} else {
			res.Stats.ReusedDelta += nc - len(recompute)
		}

		// fresh lists recompute's nodes in the same (ascending) order, a
		// subsequence of the candidates, so the merge below walks both
		// with a cursor.
		var fresh Result
		if len(recompute) > 0 {
			fresh, err = estimateSource(ctx, gCur, u, tree, recompute, pp, nr)
			if err != nil {
				return nil, err
			}
			if epoch == estEpoch {
				res.Stats.FrozenReused++
			}
			estEpoch = epoch
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
		next := 0
		for i := 0; i < nc; i++ {
			v := candidates[i]
			prev := omega[v]
			s := prev
			if next < len(recompute) && recompute[next] == v {
				s = fresh.scores[next]
				next++
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
		treePrev = tree
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
	statTemporalTreeRebuilt.Add(uint64(res.Stats.TreeRebuilt))
	statTemporalFrozenReused.Add(uint64(res.Stats.FrozenReused))
	return res, nil
}

// affectedArea returns Theorem 2's affected area as one staggered
// multi-source forward BFS over a dense bitset: the reach, depth lmax,
// of the altered nodes of the source's reverse reachable tree, and the
// reach, depth lmax−1, of the nodes whose in-lists changed (each changed
// edge's head for directed graphs, both endpoints for undirected ones).
// A walk reads a tree entry at each of its positions 0…lmax but draws
// steps only from the in-lists of positions 0…lmax−1, so the heads need
// one level less (Params keeps lmax ≥ 1). The tree-diff nodes go one
// level first; the heads then join the frontier and both expand
// together. A candidate outside this set samples identical walks and
// consults identical crash probabilities, so its score is provably
// unchanged.
func affectedArea(g *graph.Graph, directed bool, d temporal.Delta, treeDiff []graph.NodeID, lmax int, ts *temporalScratch) nodeBitset {
	reach := newNodeBitset(ts.reach, g.NumNodes())
	frontier, next := forwardReachBits(g, treeDiff, 1, reach, ts.frontier, ts.next)
	for _, set := range [][]graph.Edge{d.Add, d.Del} {
		for _, e := range set {
			if reach.Add(e.Y) {
				frontier = append(frontier, e.Y)
			}
			if !directed && reach.Add(e.X) {
				frontier = append(frontier, e.X)
			}
		}
	}
	frontier, next = expandReach(g, lmax-1, reach, frontier, next)
	ts.reach, ts.frontier, ts.next = reach, frontier, next
	return reach
}
