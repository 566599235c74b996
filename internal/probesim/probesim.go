// Package probesim implements the ProbeSim algorithm (Liu et al., PVLDB
// 2017), the index-free single-source SimRank baseline the paper compares
// CrashSim against (Section II-D).
//
// Per iteration, ProbeSim samples one √c-walk W(u) from the source and
// then, for every position i of the walk, probes forward from w_i along
// out-edges to find every node v whose own √c-walk would first meet W(u)
// at position i (Definition 7's first-meeting probability): a reverse
// level-by-level dynamic program that excludes paths passing through an
// earlier walk position. Scores are averaged over n_r iterations.
package probesim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// Options configures ProbeSim. The zero value reproduces the paper's
// experimental setting (c = 0.6, ε = 0.025, δ = 0.01).
type Options struct {
	// C is the SimRank decay factor in (0,1). Default 0.6.
	C float64
	// Eps is the additive error bound ε. Default 0.025.
	Eps float64
	// Delta is the failure probability δ. Default 0.01.
	Delta float64
	// Iterations overrides n_r; 0 derives ⌈3c/ε² · ln(n/δ)⌉, the count
	// Lemma 3 cites for the untruncated estimator.
	Iterations int
	// MaxDepth caps the sampled walk length (ProbeSim's walks are
	// unbounded in principle; the geometric tail beyond the cap carries
	// less than (√c)^MaxDepth mass). Default 64.
	MaxDepth int
	// PruneThreshold drops probe entries whose probability falls below
	// it, bounding the probe frontier exactly as the original
	// implementation does. 0 derives ε·(1−√c)/8. Set negative to
	// disable pruning.
	PruneThreshold float64
	// Seed makes the run deterministic.
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
	if o.MaxDepth == 0 {
		o.MaxDepth = 64
	}
	if o.PruneThreshold == 0 {
		o.PruneThreshold = o.Eps * (1 - math.Sqrt(o.C)) / 8
	}
	return o
}

// Validate checks option ranges after defaulting. The float checks are
// written so that NaN fails them.
func (o Options) Validate() error {
	q := o.withDefaults()
	if !(q.C > 0 && q.C < 1) {
		return fmt.Errorf("probesim: decay factor c=%g outside (0,1)", q.C)
	}
	if !(q.Eps > 0 && q.Eps < 1) {
		return fmt.Errorf("probesim: error bound eps=%g outside (0,1)", q.Eps)
	}
	if !(q.Delta > 0 && q.Delta < 1) {
		return fmt.Errorf("probesim: failure probability delta=%g outside (0,1)", q.Delta)
	}
	if q.Iterations < 0 {
		return fmt.Errorf("probesim: iterations must be >= 0, got %d", q.Iterations)
	}
	if q.MaxDepth < 1 {
		return fmt.Errorf("probesim: max depth must be >= 1, got %d", q.MaxDepth)
	}
	return nil
}

// iterations resolves the effective n_r for n nodes.
func (o Options) iterations(n int) int {
	if o.Iterations > 0 {
		return o.Iterations
	}
	nr := 3 * o.C / (o.Eps * o.Eps) * math.Log(float64(n)/o.Delta)
	return int(math.Ceil(nr))
}

// SingleSource estimates sim(u, v) for every node v. The score of u
// itself is 1 by definition.
func SingleSource(g *graph.Graph, u graph.NodeID, opt Options) (map[graph.NodeID]float64, error) {
	return SingleSourceCtx(context.Background(), g, u, opt)
}

// SingleSourceCtx is SingleSource with cancellation: the Monte-Carlo
// loop checks ctx between iterations (each iteration is one sampled
// source walk plus its probes), so a deadline or client disconnect
// stops CPU work promptly and returns ctx.Err().
func SingleSourceCtx(ctx context.Context, g *graph.Graph, u graph.NodeID, opt Options) (map[graph.NodeID]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("probesim: source %d out of range for n=%d", u, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nr := o.iterations(n)
	r := rng.New(o.Seed)
	sc := math.Sqrt(o.C)

	scores := make(map[graph.NodeID]float64, n)
	var walk []graph.NodeID
	var order []graph.NodeID
	cur := make(map[graph.NodeID]float64)
	next := make(map[graph.NodeID]float64)
	for k := 0; k < nr; k++ {
		if k&63 == 63 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		walk = sampleWalk(g, u, sc, o.MaxDepth, r, walk)
		for i := 1; i < len(walk); i++ {
			order = probe(g, walk, i, sc, o.PruneThreshold, cur, next, order, scores)
		}
	}
	inv := 1 / float64(nr)
	for v := range scores {
		scores[v] *= inv
	}
	scores[u] = 1
	return scores, nil
}

// probe accumulates, for every node v, the probability that a √c-walk
// from v is at walk[i] after i steps without having been at walk[j]
// after j steps for any 1 <= j < i (the first-meeting exclusion). cur,
// next and order are scratch reused across calls; the frontier is
// expanded in sorted node order so the floating-point sums in next are
// bit-identical run to run (Go's map iteration order is randomized).
func probe(g *graph.Graph, walk []graph.NodeID, i int, sc, prune float64,
	cur, next map[graph.NodeID]float64, order []graph.NodeID,
	scores map[graph.NodeID]float64) []graph.NodeID {
	clear(cur)
	cur[walk[i]] = 1
	for t := i; t >= 1; t-- {
		clear(next)
		order = order[:0]
		for x := range cur {
			order = append(order, x)
		}
		slices.Sort(order)
		for _, x := range order {
			px := cur[x]
			for _, y := range g.Out(x) {
				// A reverse walk from y moves to x (an in-neighbor of
				// y) with probability √c/|I(y)|.
				p := px * sc / float64(g.InDegree(y))
				if p < prune {
					continue
				}
				next[y] += p
			}
		}
		// Exclude candidate walks that would already have met the source
		// walk at the earlier position t-1.
		if t-1 >= 1 {
			delete(next, walk[t-1])
		}
		cur, next = next, cur
	}
	for v, p := range cur {
		scores[v] += p
	}
	// Leave scratch maps in a defined state for the caller's reuse: cur
	// and next were swapped an odd or even number of times, so clear both.
	clear(cur)
	clear(next)
	return order
}

func sampleWalk(g *graph.Graph, v graph.NodeID, sc float64, maxSteps int, r *rng.Source, buf []graph.NodeID) []graph.NodeID {
	buf = append(buf[:0], v)
	cur := v
	for step := 0; step < maxSteps; step++ {
		if r.Float64() >= sc {
			break
		}
		in := g.In(cur)
		if len(in) == 0 {
			break
		}
		cur = in[r.IntN(len(in))]
		buf = append(buf, cur)
	}
	return buf
}
