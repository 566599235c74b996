// Package linsim implements a linearized single-source SimRank solver,
// the third algorithm family the paper's related-work section surveys
// (Fujiwara et al. [5], Kusumoto et al. [8], Yu & McCann [26]).
//
// It is built on the linearization of the SimRank fixed point
// S = c·W S Wᵀ + D, namely
//
//	S = Σ_{k≥0} c^k W^k D (Wᵀ)^k
//
// where W is the in-neighbor averaging operator ((Wx)(v) is the mean of
// x over I(v)) and D = diag(d) is the diagonal correction that makes
// diag(S) = 1 — the same per-node never-meet-again probability SLING
// stores (see internal/sling). A single-source query is then one
// forward pass (x_k = Wᵀx_{k-1} started from e_u, the reverse
// uniform-walk distributions), which is core's level push at c = 1 into
// a pooled sparse arena, and one backward accumulation (r ← c W r +
// D x_k) over two n-vectors, giving a fully deterministic O(K·m) query
// once d is estimated. Unlike the Monte-Carlo methods, repeated queries
// return identical values with no sampling noise beyond the shared d
// estimate.
package linsim

import (
	"fmt"
	"math"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
	"crashsim/internal/sling"
)

// Options configures the solver.
type Options struct {
	// C is the SimRank decay factor in (0,1). Default 0.6.
	C float64
	// Eps is the target truncation error; the series is cut at K with
	// c^(K+1) ≤ Eps/4. Default 0.025.
	Eps float64
	// K overrides the series truncation depth (0 derives it from Eps).
	// At most maxK, explicit or derived.
	K int
	// DSamples is the number of coupled walk pairs per node used to
	// estimate the diagonal correction. Default 120.
	DSamples int
	// Seed makes the d estimation deterministic.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.6
	}
	if o.Eps == 0 {
		o.Eps = 0.025
	}
	if o.K == 0 {
		o.K = deriveK(o.C, o.Eps)
	}
	if o.DSamples == 0 {
		o.DSamples = 120
	}
	return o
}

// maxK bounds the series depth, explicit or derived, as core bounds its
// truncation length (the same 1024): a query reads K+1 forward levels
// and runs K backward sweeps over all m edges, and New walks K+4 steps
// per d sample. The default c = 0.6, eps = 0.025 derives 11.
const maxK = 1024

// deriveK returns the smallest K with c^(K+1) ≤ eps/4. The count is
// computed in float64 and converted only when it lies in [1, maxK];
// any other value, NaN included, returns maxK+1, which Validate
// refuses.
func deriveK(c, eps float64) int {
	k := math.Ceil(math.Log(eps/4)/math.Log(c)) + 1
	if !(k >= 1 && k <= maxK) {
		return maxK + 1
	}
	return int(k)
}

// Validate checks option ranges after defaulting. The float checks
// are written so that NaN fails them.
func (o Options) Validate() error {
	q := o.withDefaults()
	if !(q.C > 0 && q.C < 1) {
		return fmt.Errorf("linsim: decay factor c=%g outside (0,1)", q.C)
	}
	if !(q.Eps > 0 && q.Eps < 1) {
		return fmt.Errorf("linsim: error target eps=%g outside (0,1)", q.Eps)
	}
	if q.K < 1 || q.K > maxK {
		if o.K == 0 {
			return fmt.Errorf("linsim: series depth derived from c=%g, eps=%g exceeds %d", q.C, q.Eps, maxK)
		}
		return fmt.Errorf("linsim: series depth %d outside [1,%d]", q.K, maxK)
	}
	if q.DSamples < 1 {
		return fmt.Errorf("linsim: d samples must be >= 1, got %d", q.DSamples)
	}
	return nil
}

// Solver holds the graph and the estimated diagonal correction; build
// once, query many times.
type Solver struct {
	g   *graph.Graph
	opt Options
	d   []float64
}

// New estimates the diagonal correction and returns a query-ready
// solver. Cost is O(n · DSamples · E[walk]).
func New(g *graph.Graph, opt Options) (*Solver, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	o := opt.withDefaults()
	s := &Solver{g: g, opt: o, d: make([]float64, g.NumNodes())}
	sc := math.Sqrt(o.C)
	for x := range s.d {
		r := rng.FastSplit(o.Seed, uint64(x))
		s.d[x] = sling.NeverMeet(g, graph.NodeID(x), sc, o.K+4, o.DSamples, &r)
	}
	return s, nil
}

// D exposes the diagonal correction for tests and cross-checks.
func (s *Solver) D(v graph.NodeID) float64 { return s.d[v] }

// SingleSource returns sim(u, ·) for all nodes as a dense slice.
func (s *Solver) SingleSource(u graph.NodeID) ([]float64, error) {
	n := s.g.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("linsim: source %d out of range for n=%d", u, n)
	}
	// The forward vectors x_k = (Wᵀ)^k e_u, k = 0..K, are the levels of
	// core's level push at c = 1: the k-step reverse uniform-walk
	// distributions of the source. The backward accumulation of
	// S e_u = Σ_k c^k W^k D (Wᵀ)^k e_u, r = D x_K; r ← c W r + D x_k,
	// reads them level by level while the pooled tree is live.
	r, next := make([]float64, n), make([]float64, n)
	core.Push(s.g, u, 1, s.opt.K, core.TransitionExact, 0, core.InEdges, func(t *core.ReachTree) {
		s.addD(r, t, s.opt.K)
		for k := s.opt.K - 1; k >= 0; k-- {
			s.average(next, r)
			r, next = next, r
			s.addD(r, t, k)
		}
	})
	r[u] = 1 // exact by definition; the series value carries d noise
	return r, nil
}

// Sim returns a single pair value via SingleSource (provided for
// interface parity; the whole column costs the same as one entry).
func (s *Solver) Sim(u, v graph.NodeID) (float64, error) {
	if v < 0 || int(v) >= s.g.NumNodes() {
		return 0, fmt.Errorf("linsim: node %d out of range for n=%d", v, s.g.NumNodes())
	}
	col, err := s.SingleSource(u)
	if err != nil {
		return 0, err
	}
	return col[v], nil
}

// average writes c·Wx into dst: dst(v) is c times the mean of x over
// v's in-neighbors (the SimRank averaging operator), 0 where v has none.
func (s *Solver) average(dst, x []float64) {
	for v := range dst {
		in := s.g.In(graph.NodeID(v))
		if len(in) == 0 {
			dst[v] = 0
			continue
		}
		sum := 0.0
		for _, w := range in {
			sum += x[w]
		}
		dst[v] = s.opt.C * sum / float64(len(in))
	}
}

// addD adds D·x_k to r, reading x_k's non-zero entries from level k of
// the forward push. The conversion rounds each product before its add,
// so no fused multiply-add changes the bits.
func (s *Solver) addD(r []float64, t *core.ReachTree, k int) {
	nodes, probs := t.Level(k)
	for i, v := range nodes {
		r[v] += float64(s.d[v] * probs[i])
	}
}
