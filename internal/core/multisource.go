package core

import (
	"context"
	"fmt"
	"maps"
	"math"

	"crashsim/internal/graph"
	"crashsim/internal/par"
)

// MultiSource answers a batch of single-source queries in one pipeline
// pass: every distinct source's reverse reachable tree is built and
// frozen exactly once, the per-source candidate sets are flattened into
// a single (source, candidate) work list, and that list runs through
// one par.ForEachCtx fan-out over a shared pooled scratch arena.
// Compared to dispatching the sources one by one this pays one scratch
// acquisition, one scheduling ramp-up and — because repeated sources
// are deduplicated — one tree build and one sampling pass per distinct
// source instead of per request.
//
// A nil omega means all nodes; a non-nil omega restricts every source's
// result to those candidates. The returned slice is parallel to
// sources: out[i] holds the scores for sources[i], and repeated sources
// get independent clones so callers may mutate any result freely.
//
// Results are bit-identical to calling SingleSourceCtx per source with
// the same Params: a candidate's random stream is derived from (Seed,
// candidate) alone, so neither the batching, the worker count, nor the
// composition of the batch changes any score — the equivalence tests
// enforce this across all three meeting rules.
//
// Cancellation is all-or-nothing: once ctx is done no new work items
// start, in-flight kernels abort through their own checks, and the call
// returns (nil, ctx.Err()).
func MultiSource(ctx context.Context, g *graph.Graph, sources, omega []graph.NodeID, p Params) ([]Scores, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q := p.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	for _, u := range sources {
		if err := checkSource(g, u); err != nil {
			return nil, err
		}
	}
	for _, v := range omega {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: candidate %d out of range for n=%d", v, n)
		}
	}
	if len(sources) == 0 {
		return []Scores{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nr := q.iterations(n)
	if nr < 1 {
		return nil, fmt.Errorf("core: derived iteration count %d < 1", nr)
	}

	statBatches.Inc()
	statBatchSources.Add(uint64(len(sources)))

	// Deduplicate: repeated sources (hot keys under skewed serving
	// traffic) are prepared and sampled once; duplicates are satisfied
	// by cloning the unique result during assembly.
	slot := make(map[graph.NodeID]int, len(sources))
	uniq := make([]graph.NodeID, 0, len(sources))
	for _, u := range sources {
		if _, ok := slot[u]; !ok {
			slot[u] = len(uniq)
			uniq = append(uniq, u)
		}
	}
	statBatchDedup.Add(uint64(len(sources) - len(uniq)))

	pooled := !q.DisablePooling
	bs := acquireBatchScratch(len(uniq), n, pooled)
	defer bs.release(pooled)
	// Trees and frozen forms are owned by this batch alone; hand their
	// storage back once the estimates (or an abort) are done. Runs
	// before bs.release (LIFO), which then drops the dangling pointers.
	defer func() {
		for i := range bs.preps {
			releaseFrozen(bs.preps[i].ft, pooled)
			releaseTree(bs.preps[i].tree, pooled)
		}
	}()

	cand := omega
	if cand == nil {
		cand = bs.sc.identity(n)
	}
	sqrtC := math.Sqrt(q.C)

	// Prep phase, sequential per unique source: build the reverse
	// reachable tree, compile it (the same freeze a standalone query
	// runs, so the kernel choice matches), prefilter the candidates, and
	// append one work item per surviving candidate. Work items land
	// source-major, keeping each source's tree and dense window
	// cache-warm within a worker's chunk.
	for i, u := range uniq {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var tree *ReachTree
		if q.NonBacktracking {
			tree = RevReachNonBacktracking(g, u, q.C, q.Lmax, q.Transition)
		} else {
			tree = RevReach(g, u, q.C, q.Lmax, q.Transition)
		}
		tree, ft := freezeOwned(g, tree, q)
		dense := bs.slab[i*n : (i+1)*n]
		bs.preps = append(bs.preps, srcPrep{u: u, tree: tree, ft: ft, dense: dense})
		statCandidates.Add(uint64(len(cand)))
		for _, v := range bs.sc.liveCandidates(g, u, cand, q, tree, ft, dense) {
			bs.work = append(bs.work, batchItem{src: int32(i), v: v})
		}
	}
	statBatchItems.Add(uint64(len(bs.work)))

	// One fan-out over the whole flattened list: every item is an
	// independent (source, candidate) estimate writing a disjoint slab
	// entry, so the loop needs no locking and stays bit-identical for
	// any worker count.
	work, preps := bs.work, bs.preps
	if err := par.ForEachCtx(ctx, len(work), q.Workers, func(idx int) {
		it := work[idx]
		pr := &preps[it.src]
		var s float64
		var err error
		if pr.ft != nil {
			s, err = estimateCandidateFrozen(ctx, g, pr.u, it.v, q, pr.ft, nr, sqrtC)
		} else {
			wb := acquireWalk(pooled)
			var walk []graph.NodeID
			s, walk, err = estimateCandidate(ctx, g, pr.u, it.v, q, pr.tree, nr, sqrtC, *wb)
			*wb = walk
			releaseWalk(wb, pooled)
		}
		if err != nil {
			return // only ctx errors escape; ForEachCtx reports them
		}
		pr.dense[it.v] = s
	}); err != nil {
		return nil, err
	}

	// Assembly: one Scores map per unique source, distributed to every
	// position that asked for it (clones for duplicates, so results
	// never alias each other).
	uniqScores := make([]Scores, len(uniq))
	for i := range preps {
		s := make(Scores, len(cand))
		for _, v := range cand {
			s[v] = preps[i].dense[v]
		}
		uniqScores[i] = s
	}
	out := make([]Scores, len(sources))
	taken := make([]bool, len(uniq))
	for pos, u := range sources {
		i := slot[u]
		if !taken[i] {
			out[pos] = uniqScores[i]
			taken[i] = true
		} else {
			out[pos] = maps.Clone(uniqScores[i])
		}
	}
	return out, nil
}
