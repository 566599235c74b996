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
// stores (see internal/sling). A single-source query is then K+1 sparse
// matrix-vector products forward (x_k = Wᵀx_{k-1} started from e_u, the
// reverse uniform-walk distributions) and one backward accumulation
// (r ← D x_k + c W r), giving a fully deterministic O(K·m) query once d
// is estimated. Unlike the Monte-Carlo methods, repeated queries return
// identical values with no sampling noise beyond the shared d estimate.
package linsim

import (
	"fmt"
	"math"

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
		o.K = int(math.Ceil(math.Log(o.Eps/4)/math.Log(o.C))) + 1
	}
	if o.DSamples == 0 {
		o.DSamples = 120
	}
	return o
}

// Validate checks option ranges after defaulting.
func (o Options) Validate() error {
	q := o.withDefaults()
	if q.C <= 0 || q.C >= 1 {
		return fmt.Errorf("linsim: decay factor c=%g outside (0,1)", q.C)
	}
	if q.Eps <= 0 || q.Eps >= 1 {
		return fmt.Errorf("linsim: error target eps=%g outside (0,1)", q.Eps)
	}
	if q.K < 1 {
		return fmt.Errorf("linsim: series depth must be >= 1, got %d", q.K)
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
	o := opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	s := &Solver{g: g, opt: o, d: make([]float64, g.NumNodes())}
	sc := math.Sqrt(o.C)
	for x := range s.d {
		s.d[x] = sling.NeverMeet(g, graph.NodeID(x), sc, o.K+4, o.DSamples, rng.Split(o.Seed, uint64(x)))
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
	// Forward pass: x_k = (Wᵀ)^k e_u for k = 0..K — the k-step reverse
	// uniform-walk distribution of the source (mass spreads from each
	// node evenly over its in-neighbors).
	xs := make([][]float64, s.opt.K+1)
	xs[0] = make([]float64, n)
	xs[0][u] = 1
	for k := 1; k <= s.opt.K; k++ {
		xs[k] = s.spread(xs[k-1], 1)
	}
	// Backward accumulation of S e_u = Σ_k c^k W^k D (Wᵀ)^k e_u:
	// r = D x_K; r ← D x_k + c W r.
	r := s.scaleD(xs[s.opt.K])
	for k := s.opt.K - 1; k >= 0; k-- {
		r = s.average(r, s.opt.C)
		dx := s.scaleD(xs[k])
		for v := range r {
			r[v] += dx[v]
		}
	}
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

// average computes y = scale · Wx: y(v) is the mean of x over v's
// in-neighbors (the SimRank averaging operator).
func (s *Solver) average(x []float64, scale float64) []float64 {
	n := s.g.NumNodes()
	y := make([]float64, n)
	for v := 0; v < n; v++ {
		in := s.g.In(graph.NodeID(v))
		if len(in) == 0 {
			continue
		}
		sum := 0.0
		for _, w := range in {
			sum += x[w]
		}
		y[v] = scale * sum / float64(len(in))
	}
	return y
}

// spread computes y = scale · Wᵀx: each node v scatters x(v)/|I(v)| to
// its in-neighbors (one step of the reverse uniform walk).
func (s *Solver) spread(x []float64, scale float64) []float64 {
	n := s.g.NumNodes()
	y := make([]float64, n)
	for v := 0; v < n; v++ {
		in := s.g.In(graph.NodeID(v))
		if len(in) == 0 || x[v] == 0 {
			continue
		}
		w := scale * x[v] / float64(len(in))
		for _, z := range in {
			y[z] += w
		}
	}
	return y
}

// scaleD returns D·x.
func (s *Solver) scaleD(x []float64) []float64 {
	y := make([]float64, len(x))
	for v := range x {
		y[v] = s.d[v] * x[v]
	}
	return y
}
