package core

import (
	"context"

	"crashsim/internal/graph"
)

// MultiSource answers a batch of single-source queries in one pipeline
// pass: every distinct source's reverse reachable tree is built exactly
// once, and all of them run through one call of the
// estimate path (arena.sample), whose flattened (source, candidate)
// work list shares one fan-out and one pooled arena. Compared to
// dispatching the sources one by one this pays one arena acquisition,
// one scheduling ramp-up and — because repeated sources are
// deduplicated — one tree build and one sampling pass per distinct
// source instead of per request.
//
// A nil omega means all nodes; a non-nil omega restricts every source's
// result to those candidates. The returned slice is parallel to
// sources: out[i] holds the scores for sources[i], and every entry is
// a map of its own, so callers may mutate any result freely. It is the
// map view of MultiSourceResults.
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
	rs, err := MultiSourceResults(ctx, g, sources, omega, p)
	if err != nil {
		return nil, err
	}
	out := make([]Scores, len(rs))
	for i, r := range rs {
		out[i] = r.Map()
	}
	return out, nil
}

// MultiSourceResults is MultiSource answering with Results built
// straight from the batch's dense scores. Repeated sources share one
// Result, which is immutable, and all results of a batch share one node
// list.
func MultiSourceResults(ctx context.Context, g *graph.Graph, sources, omega []graph.NodeID, p Params) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumNodes()
	q, nr, err := p.resolve(n)
	if err != nil {
		return nil, err
	}
	for _, u := range sources {
		if err := checkSource(g, u); err != nil {
			return nil, err
		}
	}
	if len(sources) == 0 {
		return []Result{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	statBatches.Inc()
	statBatchSources.Add(uint64(len(sources)))

	// Deduplicate: repeated sources (hot keys under skewed serving
	// traffic) are prepared and sampled once; duplicates are satisfied
	// by sharing the unique result.
	slot := make(map[graph.NodeID]int, len(sources))
	uniq := make([]graph.NodeID, 0, len(sources))
	for _, u := range sources {
		if _, ok := slot[u]; !ok {
			slot[u] = len(uniq)
			uniq = append(uniq, u)
		}
	}
	statBatchDedup.Add(uint64(len(sources) - len(uniq)))

	a := acquireArena(len(uniq), len(uniq), n)
	defer a.release()
	// Source trees are owned by this batch alone; hand their arenas
	// back once the estimates (or an abort) are done. Runs before
	// a.release (LIFO), which then drops the dangling pointers.
	defer func() {
		for i := range a.preps {
			treePool.Put(a.preps[i].tree)
		}
	}()

	// Prep phase, sequential per unique source: build the reverse
	// reachable tree with its probe index (the same build a standalone
	// query runs) and prepare it against the source's window of the
	// shared slab.
	for i, u := range uniq {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a.addSource(g, u, buildTreeInto(nil, g, u, q), a.window(i, n), nil)
	}
	cand, err := a.sample(ctx, g, omega, q, nr)
	if err != nil {
		return nil, err
	}
	statBatchItems.Add(uint64(len(a.work)))

	// Assembly: one Result per unique source, shared by every position
	// that asked for it.
	nodes := resultNodes(omega, cand)
	uniqRes := make([]Result, len(uniq))
	for i := range a.preps {
		uniqRes[i] = a.preps[i].result(nodes)
	}
	out := make([]Result, len(sources))
	for pos, u := range sources {
		out[pos] = uniqRes[slot[u]]
	}
	return out, nil
}
