package core

import (
	"context"
	"fmt"
	"slices"

	"crashsim/internal/graph"
)

// TopKResult is one ranked answer of a top-k query.
type TopKResult struct {
	Node  graph.NodeID
	Score float64
}

// rankCmp is the one ranking order every answer uses: score descending,
// ties by ascending node id. Node ids are unique within a score map, so
// the order is total and a ranking never depends on map iteration order.
func rankCmp(a, b TopKResult) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	default:
		return int(a.Node) - int(b.Node)
	}
}

// Top ranks a score map the way Result.Top ranks a result: the k best
// entries of s in rank order, skipping exclude. It runs the same
// bounded heap over the map in place, so it copies nothing.
func Top(s Scores, exclude graph.NodeID, k int) []TopKResult {
	if k <= 0 || len(s) == 0 {
		return nil
	}
	h := topHeap(make([]TopKResult, 0, min(k, len(s))))
	for v, score := range s {
		if v != exclude && h.wants(v, score, k) {
			h.keep(TopKResult{Node: v, Score: score}, k)
		}
	}
	return h.ranked()
}

// topHeap holds the k best entries offered so far as a heap whose root
// ranks last.
type topHeap []TopKResult

// wants reports whether (v, score) ranks among the k best seen so far.
// It is small enough to inline, and it turns away an entry that ranks
// below a full heap's root, which is what almost every entry does.
func (h topHeap) wants(v graph.NodeID, score float64, k int) bool {
	if len(h) < k {
		return true
	}
	root := h[0]
	return score > root.Score || score == root.Score && v < root.Node
}

// keep adds r, which wants admitted, evicting the root of a full heap.
func (h *topHeap) keep(r TopKResult, k int) {
	if len(*h) < k {
		*h = append(*h, r)
		siftUp(*h, len(*h)-1)
	} else {
		(*h)[0] = r
		siftDown(*h, 0)
	}
}

// ranked sorts the kept entries into rank order and returns them.
func (h topHeap) ranked() []TopKResult {
	slices.SortFunc(h, rankCmp)
	return h
}

// siftUp and siftDown maintain h as a heap whose root ranks last.
func siftUp(h []TopKResult, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if rankCmp(h[i], h[p]) <= 0 {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []TopKResult, i int) {
	for {
		worst, l := i, 2*i+1
		if l < len(h) && rankCmp(h[l], h[worst]) > 0 {
			worst = l
		}
		if r := l + 1; r < len(h) && rankCmp(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// TopK answers the top-k single-source SimRank query: the k nodes most
// similar to u (excluding u itself), with their estimated scores.
func TopK(g *graph.Graph, u graph.NodeID, k int, p Params) ([]TopKResult, error) {
	return TopKCtx(context.Background(), g, u, k, p)
}

// TopKCtx is TopK with cancellation, forwarded to both estimator
// passes.
//
// It exploits CrashSim's partial-computation mode in two phases: a
// coarse pass over all nodes with a reduced iteration budget shortlists
// candidates whose coarse score could plausibly reach the top k, and a
// full-budget pass refines only the shortlist. The shortlist keeps every
// node within 2ε of the coarse k-th score. That margin is a heuristic,
// not Theorem 1's guarantee: the coarse pass runs n_r/8 walks (at
// least 50), so at the same δ its error is about √8·ε, and a node can
// fall outside the margin and be dropped although its full-budget
// score would rank it. In ROADMAP item 4(a)'s check of 600 queries
// (three graphs, ε 0.05 and 0.025, k = 10) no TopK answer differed
// from SingleSource(u).Top(k).
//
// Both phases run against one source tree and one prepared arena, built
// once. A candidate's score depends only on (Seed, candidate, n_r,
// tree), so the shortlist's order is irrelevant, and when the coarse
// budget already is the full one (n_r ≤ 50) the coarse ranking is
// returned as is: a refine pass would recompute bit-identical scores.
func TopKCtx(ctx context.Context, g *graph.Graph, u graph.NodeID, k int, p Params) ([]TopKResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: top-k needs k >= 1, got %d", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tree, q, nr, err := prepare(g, u, p)
	if err != nil {
		return nil, err
	}
	defer treePool.Put(tree)
	n := g.NumNodes()
	a := acquireArena(1, 1, n)
	defer a.release()
	a.addSource(g, u, tree, a.window(0, n), nil)

	// Phase 1: coarse scores with a fraction of the budget.
	coarse := nr / 8
	if coarse < 50 {
		coarse = min(50, nr)
	}
	scores, err := a.sampleOne(ctx, g, nil, q, coarse)
	if err != nil {
		return nil, err
	}
	head := scores.Top(u, k)
	if len(head) == 0 {
		return nil, nil
	}
	if coarse == nr {
		return head, nil
	}

	// Phase 2: refine every candidate within 2ε of the coarse cut.
	cut := head[len(head)-1].Score - 2*q.Eps
	var omega []graph.NodeID
	for i, v := range scores.nodes {
		if v != u && scores.scores[i] >= cut {
			omega = append(omega, v)
		}
	}
	// The refine pass starts from a zeroed window, as a fresh estimate
	// would.
	clear(a.slab)
	rescored, err := a.sampleOne(ctx, g, omega, q, nr)
	if err != nil {
		return nil, err
	}
	return rescored.Top(u, k), nil
}

// SinglePair estimates sim(u, v) with CrashSim's partial mode.
func SinglePair(g *graph.Graph, u, v graph.NodeID, p Params) (float64, error) {
	return SinglePairCtx(context.Background(), g, u, v, p)
}

// SinglePairCtx is SinglePair with cancellation.
func SinglePairCtx(ctx context.Context, g *graph.Graph, u, v graph.NodeID, p Params) (float64, error) {
	s, err := SingleSourceCtx(ctx, g, u, []graph.NodeID{v}, p)
	if err != nil {
		return 0, err
	}
	return s[v], nil
}
