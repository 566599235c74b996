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

// Top returns the k best entries of s in rank order (score descending,
// ties by ascending node id), skipping exclude. It keeps a bounded
// heap of the k best seen so far, rooted at the worst of them, so a
// pass costs O(n log k) time and O(k) memory rather than sorting all
// n entries. k <= 0 yields an empty result; k beyond the map's size
// yields every entry.
func Top(s Scores, exclude graph.NodeID, k int) []TopKResult {
	if k <= 0 || len(s) == 0 {
		return nil
	}
	h := make([]TopKResult, 0, min(k, len(s)))
	for v, score := range s {
		if v == exclude {
			continue
		}
		r := TopKResult{Node: v, Score: score}
		if len(h) < k {
			h = append(h, r)
			siftUp(h, len(h)-1)
		} else if rankCmp(r, h[0]) < 0 {
			h[0] = r
			siftDown(h, 0)
		}
	}
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
// node within 2ε of the coarse k-th score, so a node is excluded only if
// both its coarse and refined scores would have to err by more than ε —
// the same per-node confidence Theorem 1 gives the plain estimator.
//
// Both phases run against one source tree, built and compiled once. A
// candidate's score depends only on (Seed, candidate, n_r, tree), so
// the shortlist's order is irrelevant, and when the coarse budget
// already is the full one (n_r ≤ 50) the coarse ranking is returned
// as is: a refine pass would recompute bit-identical scores.
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
	tree, q, err := prepare(g, u, p)
	if err != nil {
		return nil, err
	}
	pooled := !q.DisablePooling
	ft := freezeOwned(g, tree, q)
	defer releaseFrozen(ft, pooled)
	nr := q.iterations(g.NumNodes())

	// Phase 1: coarse scores with a fraction of the budget.
	coarse := q
	coarse.Iterations = nr / 8
	if coarse.Iterations < 50 {
		coarse.Iterations = min(50, nr)
	}
	scores, err := estimateWith(ctx, g, u, nil, coarse, ft)
	if err != nil {
		return nil, err
	}
	head := Top(scores, u, k)
	if len(head) == 0 {
		return nil, nil
	}
	if coarse.Iterations == nr {
		return head, nil
	}

	// Phase 2: refine every candidate within 2ε of the coarse cut.
	cut := head[len(head)-1].Score - 2*q.Eps
	var omega []graph.NodeID
	for v, s := range scores {
		if v != u && s >= cut {
			omega = append(omega, v)
		}
	}
	refined := q
	refined.Iterations = nr
	rescored, err := estimateWith(ctx, g, u, omega, refined, ft)
	if err != nil {
		return nil, err
	}
	return Top(rescored, u, k), nil
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
