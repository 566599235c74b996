package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

func TestTopKAgainstExact(t *testing.T) {
	edges, err := gen.ErdosRenyi(80, 240, true, 31)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(80, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	got, err := TopK(g, 0, k, Params{C: 0.6, Eps: 0.05, Delta: 0.01, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("TopK returned %d results, want %d", len(got), k)
	}
	// Scores must be descending and near the truth.
	for i, r := range got {
		if i > 0 && r.Score > got[i-1].Score {
			t.Errorf("results not sorted at %d", i)
		}
		if d := math.Abs(r.Score - gt.Sim(0, r.Node)); d > 0.08 {
			t.Errorf("node %d score %.4f vs exact %.4f", r.Node, r.Score, gt.Sim(0, r.Node))
		}
	}
	// The returned set must overlap the exact top-k heavily: every
	// returned node must have exact score >= exact k-th score - 2·eps.
	truth := gt.SingleSource(0)
	exactSorted := append([]float64(nil), truth...)
	exactSorted[0] = -1 // exclude the source's self-score
	kth := kthLargest(exactSorted, k)
	for _, r := range got {
		if truth[r.Node] < kth-0.1 {
			t.Errorf("node %d (exact %.4f) far below exact k-th score %.4f", r.Node, truth[r.Node], kth)
		}
	}
}

func kthLargest(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	for i := 0; i < k; i++ {
		max := i
		for j := i + 1; j < len(s); j++ {
			if s[j] > s[max] {
				max = j
			}
		}
		s[i], s[max] = s[max], s[i]
	}
	return s[k-1]
}

func TestTopKSmallGraph(t *testing.T) {
	g := graph.PaperExample()
	got, err := TopK(g, graph.PaperNode("A"), 3, Params{Iterations: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	for _, r := range got {
		if r.Node == graph.PaperNode("A") {
			t.Error("source included in top-k")
		}
	}
	// k larger than the graph truncates gracefully.
	all, err := TopK(g, 0, 100, Params{Iterations: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 7 {
		t.Errorf("oversized k returned %d results, want 7", len(all))
	}
}

func TestTopKErrors(t *testing.T) {
	g := graph.PaperExample()
	if _, err := TopK(g, 0, 0, Params{Iterations: 10}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopK(g, 99, 1, Params{Iterations: 10}); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := TopK(g, 0, 1, Params{C: 5}); err == nil {
		t.Error("bad params accepted")
	}
}

func TestSinglePair(t *testing.T) {
	g := graph.PaperExample()
	gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	u, v := graph.PaperNode("A"), graph.PaperNode("D")
	got, err := SinglePair(g, u, v, Params{C: 0.6, Iterations: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(got - gt.Sim(u, v)); d > 0.05 {
		t.Errorf("SinglePair = %.4f, exact %.4f", got, gt.Sim(u, v))
	}
	if self, err := SinglePair(g, u, u, Params{Iterations: 10}); err != nil || self != 1 {
		t.Errorf("SinglePair(u,u) = %g, %v", self, err)
	}
}

// topKTwoPassOracle is the two-tree top-k TopKCtx replaced: a coarse
// single-source query over all nodes, then a full-budget single-source
// query over the rank-ordered shortlist, each building and compiling
// its own source tree. TopKCtx must return exactly its answers.
func topKTwoPassOracle(ctx context.Context, g *graph.Graph, u graph.NodeID, k int, p Params) ([]TopKResult, error) {
	q := p.withDefaults()
	nr := q.iterations(g.NumNodes())
	coarse := q
	coarse.Iterations = nr / 8
	if coarse.Iterations < 50 {
		coarse.Iterations = min(50, nr)
	}
	scores, err := SingleSourceCtx(ctx, g, u, nil, coarse)
	if err != nil {
		return nil, err
	}
	head := Top(scores, u, k)
	if len(head) == 0 {
		return nil, nil
	}
	cut := head[len(head)-1].Score - 2*q.Eps
	var short []TopKResult
	for v, s := range scores {
		if v != u && s >= cut {
			short = append(short, TopKResult{Node: v, Score: s})
		}
	}
	slices.SortFunc(short, rankCmp)
	omega := make([]graph.NodeID, len(short))
	for i, r := range short {
		omega[i] = r.Node
	}
	refined := q
	refined.Iterations = nr
	rescored, err := SingleSourceCtx(ctx, g, u, omega, refined)
	if err != nil {
		return nil, err
	}
	return Top(rescored, u, k), nil
}

// TestTopKMatchesTwoPassOracle: the single-tree TopKCtx returns the
// two-tree oracle's answers bit for bit — on both sides of the n_r = 50
// line where the coarse pass stops being the full budget — for every k
// and worker count, and it compiles exactly one frozen tree per query.
// At n_r ≤ 50 it also samples exactly the walks of one single-source
// query: the refine pass is skipped, not merely cheap.
func TestTopKMatchesTwoPassOracle(t *testing.T) {
	g := randomTestGraph(t, 150, 600, true, 61)
	n := g.NumNodes()
	ctx := context.Background()
	compiled := obs.Default.Counter("core.frozen.compiled")
	walks := obs.Default.Counter("core.walks")
	for _, nr := range []int{20, 50, 51, 400} {
		for _, k := range []int{1, 10, n} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("nr=%d k=%d workers=%d", nr, k, workers)
				p := Params{Iterations: nr, Seed: 71, Workers: workers}
				want, err := topKTwoPassOracle(ctx, g, 4, k, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || want[0].Score <= 0 {
					t.Fatalf("%s: oracle answer %v has no positive score; test is vacuous", name, want)
				}
				c0, w0 := compiled.Load(), walks.Load()
				got, err := TopKCtx(ctx, g, 4, k, p)
				if err != nil {
					t.Fatal(err)
				}
				topkWalks := walks.Load() - w0
				if d := compiled.Load() - c0; d != 1 {
					t.Errorf("%s: %d trees compiled, want 1", name, d)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("%s: rank %d is %+v, oracle %+v", name, i, got[i], want[i])
					}
				}
				if nr <= 50 {
					w0 := walks.Load()
					if _, err := SingleSourceCtx(ctx, g, 4, nil, p); err != nil {
						t.Fatal(err)
					}
					if single := walks.Load() - w0; topkWalks != single {
						t.Errorf("%s: top-k sampled %d walks, one single-source query %d", name, topkWalks, single)
					}
				}
			}
		}
	}
}
