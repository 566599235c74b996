// Package sling implements the SLING baseline (Tian & Xiao, SIGMOD
// 2016): an index-based single-source SimRank method with an additive
// error guarantee.
//
// SLING is built on the decomposition
//
//	sim(u, v) = Σ_t Σ_x h_t(u, x) · h_t(v, x) · d(x)
//
// where h_t(y, x) is the probability that a √c-walk from y is at x after
// t steps, and d(x) is the probability that two independent √c-walks
// starting together at x never co-locate again at a later step — the
// correction that turns co-location mass into first-meeting mass.
//
// The index stores, for every node, its truncated hitting-probability
// distribution plus the Monte-Carlo estimated d values (the coupled
// sampler NeverMeet, shared with PRSim and the linearized solver);
// queries combine the source's distribution with an inverted
// occurrence index. Distributions and inverted index live in one flat
// CSR form, Flat, which Build compiles and a snapshot stores verbatim,
// so a built and a loaded index run the same query loop.
//
// A node's distribution is its reverse reachable tree (CrashSim's
// Algorithm 2) with pruning: core.Push runs the one deterministic level
// push with the exact rule along in-edges and drops each pusher's
// per-edge share below Prune. Index construction is deliberately the
// expensive phase — the paper notes SLING's index takes hours on
// million-node graphs and must be rebuilt on every update, which is
// why its Fig 5/7 response times include indexing time.
package sling

import (
	"context"
	"fmt"
	"math"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/par"
	"crashsim/internal/rng"
)

// Options configures index construction.
type Options struct {
	// C is the SimRank decay factor in (0,1). Default 0.6.
	C float64
	// Eps is the additive error target ε. Default 0.025.
	Eps float64
	// Lmax truncates the stored distributions. 0 derives the length at
	// which the remaining walk mass (√c)^L drops below ε/4. At most
	// maxLmax.
	Lmax int
	// Prune drops per-entry probabilities below this threshold during
	// the push. 0 derives ε·(1−√c)/8.
	Prune float64
	// DSamples is the number of coupled walk pairs used to estimate each
	// d(x). Default 120, at most maxDSamples.
	DSamples int
	// Workers bounds index-construction parallelism (the per-node pushes
	// and d estimations are independent). Results are identical for any
	// value. 0 or 1 is sequential.
	Workers int
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
	sc := math.Sqrt(o.C)
	if o.Lmax == 0 {
		o.Lmax = int(math.Ceil(math.Log(o.Eps/4) / math.Log(sc)))
	}
	if o.Prune == 0 {
		o.Prune = o.Eps * (1 - sc) / 8
	}
	if o.DSamples == 0 {
		o.DSamples = 120
	}
	return o
}

// Upper bounds on the options that size build work. A snapshot stores
// them as u32 fields, and Validate is what keeps a forged value from
// running NeverMeet for minutes. Both sit far above anything derived
// in this repository: Lmax is 23 at c = 0.6 and the smallest ε Fig 5
// sweeps (0.0125), and DSamples defaults to 120.
const (
	maxLmax     = 1024
	maxDSamples = 1 << 16
)

// Validate checks option ranges after defaulting. The float checks are
// written so that NaN fails them.
func (o Options) Validate() error {
	q := o.withDefaults()
	if !(q.C > 0 && q.C < 1) {
		return fmt.Errorf("sling: decay factor c=%g outside (0,1)", q.C)
	}
	if !(q.Eps > 0 && q.Eps < 1) {
		return fmt.Errorf("sling: error bound eps=%g outside (0,1)", q.Eps)
	}
	if q.Lmax < 1 || q.Lmax > maxLmax {
		return fmt.Errorf("sling: Lmax %d outside [1,%d]", q.Lmax, maxLmax)
	}
	if q.DSamples < 1 || q.DSamples > maxDSamples {
		return fmt.Errorf("sling: DSamples %d outside [1,%d]", q.DSamples, maxDSamples)
	}
	return nil
}

// entry is one stored (step, node, probability) triple of a node's
// hitting distribution, as distribution emits it.
type entry struct {
	step int32
	node graph.NodeID
	prob float64
}

// Index is a built SLING index over one static graph, served from the
// flat CSR arrays of f (see flat.go). Build compiles them; ImportFlat
// adopts them from a snapshot, possibly aliasing a read-only mapping.
type Index struct {
	g *graph.Graph
	f Flat
	// release gives borrowed memory back to its owner (drops the
	// mapping reference an imported-from-mmap index holds).
	release func() error
}

// Close releases any borrowed memory backing the index (a no-op for
// built or copied indexes). Idempotent; the index must not be queried
// afterwards.
func (ix *Index) Close() error {
	r := ix.release
	ix.release = nil
	if r == nil {
		return nil
	}
	return r()
}

// SetRelease attaches the borrowed-memory release hook; the store
// layer calls it when an index is imported aliasing a mapping.
func (ix *Index) SetRelease(f func() error) { ix.release = f }

// Build constructs the index: one bounded push per node, the inverted
// occurrence index, and the Monte-Carlo d estimation. Cost is
// O(n · push + n · DSamples · E[walk]) and dominates query time by
// design.
func Build(g *graph.Graph, opt Options) (*Index, error) {
	return BuildCtx(context.Background(), g, opt)
}

// BuildCtx is Build with cancellation: the per-node push and d-estimate
// fan-outs stop handing out work once ctx is done and BuildCtx returns
// ctx.Err(), so a canceled construction does not burn the remaining
// index-build CPU.
func BuildCtx(ctx context.Context, g *graph.Graph, opt Options) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	// The per-node pushes and d estimations are independent; fan them
	// out, then lay the distributions out and invert them sequentially
	// in node order so the arrays (and therefore query-time summation
	// order) are the same for any worker count.
	dist := make([][]entry, n)
	if err := par.ForEachCtx(ctx, n, o.Workers, func(v int) {
		dist[v] = distribution(g, graph.NodeID(v), o)
	}); err != nil {
		return nil, err
	}
	d := make([]float64, n)
	sc := math.Sqrt(o.C)
	if err := par.ForEachCtx(ctx, n, o.Workers, func(x int) {
		r := rng.FastSplit(o.Seed, uint64(x))
		d[x] = NeverMeet(g, graph.NodeID(x), sc, o.Lmax, o.DSamples, &r)
	}); err != nil {
		return nil, err
	}
	return &Index{g: g, f: compile(o, dist, d)}, nil
}

// distribution computes the truncated hitting distribution of v: the
// probability of a √c-walk from v being at each node after each step,
// pushed with the exact rule along in-edges and pruned at o.Prune. Step
// 0 (the node itself) is not stored; meetings at step 0 only concern
// u = v, which queries handle directly. The push prunes each pusher's
// per-edge share, so every stored mass is a sum of kept shares and is
// at least o.Prune itself.
func distribution(g *graph.Graph, v graph.NodeID, o Options) []entry {
	var out []entry
	core.Push(g, v, o.C, o.Lmax, core.TransitionExact, o.Prune, core.InEdges, func(t *core.ReachTree) {
		out = make([]entry, 0, t.Support()-1)
		for step := 1; step < t.NumLevels(); step++ {
			nodes, probs := t.Level(step)
			for i, x := range nodes {
				out = append(out, entry{step: int32(step), node: x, prob: probs[i]})
			}
		}
	})
	return out
}

// NeverMeet estimates d(x) = Pr[two √c-walks from x never co-locate at
// the same step in 1..maxLen] from samples coupled walk pairs drawn
// from r. SLING, PRSim and the linearized solver all correct with
// this d; each passes its own stream (derived from x, so the result is
// independent of evaluation order) and its own depth. The stream is an
// rng.Fast on the caller's stack, which draws the variates rand.Rand
// would on the same Split stream without allocating a generator per
// node.
func NeverMeet(g *graph.Graph, x graph.NodeID, sqrtC float64, maxLen, samples int, r *rng.Fast) float64 {
	never := 0
	for s := 0; s < samples; s++ {
		a, b := x, x
		met := false
		for t := 1; t <= maxLen; t++ {
			if r.Float64() >= sqrtC || r.Float64() >= sqrtC {
				break // one of the walks stopped
			}
			ia, ib := g.In(a), g.In(b)
			if len(ia) == 0 || len(ib) == 0 {
				break
			}
			a = ia[r.IntN(len(ia))]
			b = ib[r.IntN(len(ib))]
			if a == b {
				met = true
				break
			}
		}
		if !met {
			never++
		}
	}
	return float64(never) / float64(samples)
}

// SingleSource returns sim(u, ·) estimates for all nodes using the
// prebuilt index. Query cost is proportional to the overlap between u's
// distribution and the inverted occurrence lists.
func (ix *Index) SingleSource(u graph.NodeID) (map[graph.NodeID]float64, error) {
	return ix.SingleSourceCtx(context.Background(), u)
}

// SingleSourceCtx is SingleSource with cancellation, checked every few
// hundred index entries (queries are fast by design, but a hub node's
// occurrence lists can still be large).
func (ix *Index) SingleSourceCtx(ctx context.Context, u graph.NodeID) (map[graph.NodeID]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := ix.g.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("sling: source %d out of range for n=%d", u, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f := &ix.f
	scores := make(map[graph.NodeID]float64, 64)
	for i := f.DistOff[u]; i < f.DistOff[u+1]; i++ {
		if i&255 == 255 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		node := f.Nodes[i]
		prob := f.Probs[i]
		d := f.D[node]
		r := (int(f.Steps[i])-1)*n + int(node)
		for j := f.InvOff[r]; j < f.InvOff[r+1]; j++ {
			scores[f.InvOrigins[j]] += prob * f.InvProbs[j] * d
		}
	}
	scores[u] = 1
	return scores, nil
}

// D exposes the correction value d(x), used by tests.
func (ix *Index) D(x graph.NodeID) float64 { return ix.f.D[x] }

// DistSize returns the total number of stored index entries, a proxy for
// index memory in the benchmark reports.
func (ix *Index) DistSize() int { return len(ix.f.Steps) }
