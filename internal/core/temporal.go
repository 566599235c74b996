package core

import (
	"context"
	"fmt"
	"math"

	"crashsim/internal/graph"
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
	// Observer, when set, is invoked after every snapshot with the
	// snapshot index and the scores of the current candidate set
	// (before the query filter is applied). The map must not be
	// retained or modified. It powers aggregate queries such as
	// durable top-k that need the whole score trajectory.
	Observer func(t int, scores Scores)

	// rebuildEachSnapshot is a test hook: it rebuilds the source tree
	// from scratch on every snapshot, instead of patching the previous
	// tree and reusing it across tree-stable transitions. Results are
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
	ReusedDiff      int // candidate scores reused thanks to difference pruning
	TreeStableSteps int // snapshot transitions with an unchanged source tree
	TreePatched     int // transitions whose source tree was delta-patched
	TreeRebuilt     int // transitions whose source tree was rebuilt from scratch
	FrozenReused    int // estimates that reused the previous estimate's source tree

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

// Per-candidate pruning decisions. decRecompute must be the zero value:
// the decision array is cleared to it at every snapshot.
const (
	decRecompute uint8 = iota
	decReuseDelta
	decReuseDiff
)

// CrashSimT answers a temporal SimRank query (Algorithm 3) over the
// whole history of tg: it starts from the full node set, recomputes per
// snapshot only the scores the pruning rules cannot prove unchanged, and
// filters the candidate set with the query predicate after every
// snapshot.
func CrashSimT(tg *temporal.Graph, u graph.NodeID, q TemporalQuery, p Params, topt TemporalOptions) (*TemporalResult, error) {
	return CrashSimTCtx(context.Background(), tg, u, q, p, topt)
}

// CrashSimTCtx is CrashSimT with cancellation, checked between
// snapshots, inside the difference-pruning fan-out and inside the
// per-candidate sampling loops. The per-snapshot pipeline is
// incremental: the source tree is delta-patched from the previous
// snapshot's (rebuilt only for non-backtracking walks), the
// difference-pruning comparisons fan out through par.ForEachCtx (scores
// stay bit-identical for any worker count: every candidate owns its
// random stream and its decision slot), and tree-stable transitions
// reuse the previous source tree, probe index included, as is.
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
	// so the patch loop stops allocating once both arenas have grown.
	// Arenas are recycled, so a pointer no longer identifies a tree's
	// contents; epoch does instead. It moves whenever the source tree is
	// replaced, and an estimate under the epoch of the previous one
	// counts as tree reuse (FrozenReused).
	gPrev := cur.Freeze()
	treePrev, err := BuildTree(gPrev, u, pp)
	if err != nil {
		return nil, err
	}
	var spare *ReachTree
	var epoch uint64
	first, err := estimateSource(ctx, gPrev, u, treePrev, nil, pp, nr)
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

		// Source tree: an empty delta leaves the graph — and therefore
		// the tree, bit for bit — untouched, so the previous tree is
		// reused outright. Otherwise the tree is delta-patched from the
		// previous one, which yields the diff as a byproduct; a full
		// rebuild plus DiffNodes sweep serves non-backtracking walks,
		// which Patch does not handle. The rebuildEachSnapshot hook
		// skips the empty-delta shortcut too, so it reproduces the
		// rebuild-every-snapshot pipeline exactly.
		var tree *ReachTree
		var treeDiff []graph.NodeID
		switch {
		case to.rebuildEachSnapshot:
		case delta.Size() == 0:
			tree = treePrev
		case !pp.NonBacktracking:
			if nt, diff, ok := treePrev.Patch(spare, gCur, delta.Add, delta.Del, pp, treeTolerance); ok {
				tree, treeDiff = nt, diff
				res.Stats.TreePatched++
			}
		}
		if tree == nil {
			tree = buildTreeInto(spare, gCur, u, pp)
			treeDiff = tree.DiffNodes(treePrev, treeTolerance)
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
		dec := grow(ts.dec, nc)
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
			for i, v := range candidates {
				if !affected.Has(v) {
					dec[i] = decReuseDelta
				}
			}
		}

		// Difference pruning (Property 2): when the source tree is
		// stable and the candidate subgraph is small, compare each
		// remaining candidate's own reverse reachable tree across the
		// two snapshots and skip the unchanged ones. (With a changed
		// source tree this rule is unsound — a candidate's crash
		// probabilities change even if its walk distribution does not —
		// hence the gate, which is also Algorithm 3 line 7.) Comparisons
		// fan out across workers, and each writes only its candidate's
		// decision slot, so the outcome is independent of the worker
		// count.
		if !to.DisableDiffPruning && len(treeDiff) == 0 && eOmega < nr {
			if err := par.ForEachCtx(ctx, nc, pp.Workers, func(i int) {
				if dec[i] == decRecompute && sameTree(gPrev, gCur, candidates[i], pp) {
					dec[i] = decReuseDiff
				}
			}); err != nil {
				return nil, err
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

		// fresh lists recompute's nodes in the same (ascending) order, so
		// the merge below walks it with a cursor.
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
			if dec[i] == decRecompute {
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
	return res, nil
}

// sameTree reports whether candidate v's reverse reachable tree is the
// same, within treeTolerance, on gPrev and on gCur: difference
// pruning's test. Both trees are only compared, never walked, so they
// carry no probe index; they are built into pooled arenas and handed
// back before sameTree returns.
func sameTree(gPrev, gCur *graph.Graph, v graph.NodeID, pp Params) bool {
	prev := revReachInto(treePool.Get(), gPrev, v, pp.C, pp.Lmax, pp.Transition, 0, InEdges, false)
	cur := revReachInto(treePool.Get(), gCur, v, pp.C, pp.Lmax, pp.Transition, 0, InEdges, false)
	same := cur.Equal(prev, treeTolerance)
	treePool.Put(prev)
	treePool.Put(cur)
	return same
}

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
