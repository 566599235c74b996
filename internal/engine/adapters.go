package engine

import (
	"context"
	"fmt"

	"crashsim/internal/core"
	"crashsim/internal/exact"
	"crashsim/internal/graph"
	"crashsim/internal/probesim"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

// crashSim adapts the paper's index-free estimator. It is the only
// family with a native partial mode, so omega goes straight through,
// and it implements TopKer and Pairer natively.
type crashSim struct {
	g *graph.Graph
	p core.Params
}

func newCrashSim(_ context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	p := core.Params{
		C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta,
		Iterations: cfg.Iterations, Workers: cfg.Workers, Seed: cfg.Seed,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &crashSim{g: g, p: p}, nil
}

func (e *crashSim) Name() string { return "crashsim" }

func (e *crashSim) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	return core.SingleSourceCtx(ctx, e.g, u, omega, e.p)
}

func (e *crashSim) TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error) {
	return core.TopKCtx(ctx, e.g, u, k, e.p)
}

func (e *crashSim) Pair(ctx context.Context, u, v graph.NodeID) (float64, error) {
	return core.SinglePairCtx(ctx, e.g, u, v, e.p)
}

func (e *crashSim) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	return core.MultiSource(ctx, e.g, sources, nil, e.p)
}

// probeSim adapts the index-free ProbeSim baseline.
type probeSim struct {
	g *graph.Graph
	o probesim.Options
}

func newProbeSim(_ context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	o := probesim.Options{
		C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta,
		Iterations: cfg.Iterations, Seed: cfg.Seed,
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &probeSim{g: g, o: o}, nil
}

func (e *probeSim) Name() string { return "probesim" }

func (e *probeSim) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	s, err := probesim.SingleSourceCtx(ctx, e.g, u, e.o)
	if err != nil {
		return nil, err
	}
	return restrict(core.Scores(s), omega, e.g.NumNodes())
}

// SlingOptions maps a Config to the SLING build options the sling
// backend uses; the preload check compares an index's options to it.
func (cfg Config) SlingOptions() sling.Options {
	return sling.Options{
		C: cfg.C, Eps: cfg.Eps, DSamples: cfg.SlingDSamples,
		Workers: cfg.Workers, Seed: cfg.Seed,
	}
}

// ReadsOptions maps a Config to the READS build options the reads
// backend uses.
func (cfg Config) ReadsOptions() reads.Options {
	return reads.Options{
		C: cfg.C, R: cfg.ReadsR, RQ: cfg.ReadsRQ,
		Workers: cfg.Workers, Seed: cfg.Seed,
	}
}

// BuildSlingIndex builds the SLING index the sling backend would build
// over g for cfg; New and BuildIndex both build through it.
func BuildSlingIndex(ctx context.Context, g *graph.Graph, cfg Config) (*sling.Index, error) {
	return sling.BuildCtx(ctx, g, cfg.SlingOptions())
}

// BuildReadsIndex builds the READS index the reads backend would build
// over g for cfg; New and BuildIndex both build through it.
func BuildReadsIndex(ctx context.Context, g *graph.Graph, cfg Config) (*reads.Index, error) {
	ix, err := reads.BuildCtx(ctx, g.Thaw(), cfg.ReadsOptions())
	if err != nil {
		return nil, err
	}
	ix.BindSourceVersion(g.Version())
	return ix, nil
}

// PRSimOptions maps a Config to the PRSim build options the prsim
// backend uses; the preload check compares an index's options to it.
func (cfg Config) PRSimOptions() prsim.Options {
	return prsim.Options{
		C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta,
		HubFraction: cfg.HubFraction, Iterations: cfg.Iterations,
		DSamples: cfg.PRSimDSamples, Workers: cfg.Workers, Seed: cfg.Seed,
	}
}

// BuildPRSimIndex builds the PRSim hub index the prsim backend would
// build over g for cfg; New and BuildIndex both build through it.
func BuildPRSimIndex(ctx context.Context, g *graph.Graph, cfg Config) (*prsim.Index, error) {
	return prsim.BuildCtx(ctx, g, cfg.PRSimOptions())
}

// prsimEstimator adapts the PRSim hub index; New pays the eager hub
// build unless Config carries a compatible preloaded one. Tail tables
// keep filling lazily (and concurrently) behind the index's per-node
// singleflight.
type prsimEstimator struct {
	g  *graph.Graph
	ix *prsim.Index
}

func newPRSim(ctx context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	ix := cfg.PRSimIndex
	if ix == nil {
		var err error
		if ix, err = BuildPRSimIndex(ctx, g, cfg); err != nil {
			return nil, err
		}
	} else if err := persisted["prsim"].check(g, cfg); err != nil {
		return nil, err
	}
	return &prsimEstimator{g: g, ix: ix}, nil
}

func (e *prsimEstimator) Name() string { return "prsim" }

func (e *prsimEstimator) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	s, err := e.ix.SingleSourceCtx(ctx, u)
	if err != nil {
		return nil, err
	}
	return restrict(core.Scores(s), omega, e.g.NumNodes())
}

// MultiSource shares one lazy hub/tail table build per unique visited
// node across the whole batch; each entry is bit-identical to the
// corresponding SingleSource call.
func (e *prsimEstimator) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	res, err := e.ix.MultiSource(ctx, sources)
	if err != nil {
		return nil, err
	}
	out := make([]core.Scores, len(res))
	for i, s := range res {
		out[i] = core.Scores(s)
	}
	return out, nil
}

// slingEstimator adapts the SLING index; New pays the full index build
// unless Config carries a compatible preloaded one.
type slingEstimator struct {
	g  *graph.Graph
	ix *sling.Index
}

func newSLING(ctx context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	ix := cfg.SlingIndex
	if ix == nil {
		var err error
		if ix, err = BuildSlingIndex(ctx, g, cfg); err != nil {
			return nil, err
		}
	} else if err := persisted["sling"].check(g, cfg); err != nil {
		return nil, err
	}
	return &slingEstimator{g: g, ix: ix}, nil
}

func (e *slingEstimator) Name() string { return "sling" }

func (e *slingEstimator) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	s, err := e.ix.SingleSourceCtx(ctx, u)
	if err != nil {
		return nil, err
	}
	return restrict(core.Scores(s), omega, e.g.NumNodes())
}

// readsEstimator adapts the READS index over a private mutable copy of
// the served graph; New pays the full index build unless Config carries
// a compatible preloaded one.
type readsEstimator struct {
	g  *graph.Graph
	ix *reads.Index
}

func newREADS(ctx context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	ix := cfg.ReadsIndex
	if ix == nil {
		var err error
		if ix, err = BuildReadsIndex(ctx, g, cfg); err != nil {
			return nil, err
		}
	} else if err := persisted["reads"].check(g, cfg); err != nil {
		return nil, err
	}
	return &readsEstimator{g: g, ix: ix}, nil
}

func (e *readsEstimator) Name() string { return "reads" }

func (e *readsEstimator) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	s, err := e.ix.SingleSourceCtx(ctx, u)
	if err != nil {
		return nil, err
	}
	return restrict(core.Scores(s), omega, e.g.NumNodes())
}

// exactEstimator adapts the Power Method ground truth; New pays the
// whole all-pairs fixed-point iteration (guarded by ExactMaxNodes), and
// queries are row reads.
type exactEstimator struct {
	g   *graph.Graph
	res *exact.Result
}

func newExact(ctx context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	res, err := exact.PowerMethodCtx(ctx, g, exact.PowerOptions{
		C: cfg.C, Iterations: cfg.ExactIterations,
		MaxNodes: cfg.ExactMaxNodes, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &exactEstimator{g: g, res: res}, nil
}

func (e *exactEstimator) Name() string { return "exact" }

func (e *exactEstimator) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := e.g.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("engine: source %d out of range for n=%d", u, n)
	}
	row := e.res.SingleSource(u)
	full := make(core.Scores, 64)
	for v, s := range row {
		if s != 0 {
			full[graph.NodeID(v)] = s
		}
	}
	return restrict(full, omega, n)
}

func (e *exactEstimator) Pair(ctx context.Context, u, v graph.NodeID) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := graph.NodeID(e.g.NumNodes())
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, fmt.Errorf("engine: pair (%d,%d) out of range for n=%d", u, v, n)
	}
	return e.res.Sim(u, v), nil
}
