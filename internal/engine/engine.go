// Package engine is the unified query layer over every SimRank
// algorithm family in the repository. It exposes one Estimator
// interface — context-aware single-source queries, with top-k and
// single-pair where a family supports them natively — implemented by
// adapters for CrashSim, ProbeSim, SLING, READS and the Power Method,
// and a by-name registry so servers, CLIs and the benchmark harness
// dispatch uniformly instead of hand-rolling per-family switches.
//
// Construction cost is deliberately part of the contract: engine.New
// for an index-based family (sling, reads, exact) pays the whole index
// build, so one Estimator serves many queries — exactly the shape a
// service needs. Index-free families (crashsim, probesim) construct in
// O(1). All constructors and queries honor context cancellation.
package engine

import (
	"context"
	"fmt"
	"sort"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

// Estimator answers SimRank queries against one fixed graph with fixed
// parameters. Implementations are safe for concurrent queries.
type Estimator interface {
	// Name returns the registry name of the algorithm family.
	Name() string
	// SingleSource estimates sim(u, ·). A nil omega means all nodes;
	// a non-nil omega restricts the result to those candidates (every
	// candidate appears in the result, provably-zero ones with score 0).
	// A canceled or expired ctx aborts the estimate and returns
	// ctx.Err().
	SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error)
}

// TopKer is implemented by estimators with a native top-k schedule
// (CrashSim's coarse-then-refine partial mode). Use the package-level
// TopK for a uniform entry point with a generic fallback.
type TopKer interface {
	TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error)
}

// Pairer is implemented by estimators that can answer sim(u, v) cheaper
// than a full single-source pass. Use the package-level Pair for a
// uniform entry point with a generic fallback.
type Pairer interface {
	Pair(ctx context.Context, u, v graph.NodeID) (float64, error)
}

// MultiSourcer is implemented by estimators with a native batch mode
// (CrashSim's one-compile-per-source, one-fan-out pipeline). The result
// is parallel to sources and each entry is bit-identical to the
// corresponding SingleSource call; on error the whole batch fails and
// the result is nil. Use the package-level MultiSource for a uniform
// entry point with a sequential-loop fallback.
type MultiSourcer interface {
	MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error)
}

// Config carries the parameters shared by all families plus the few
// family-specific knobs; zero values mean each family's documented
// defaults (c = 0.6, ε = 0.025, δ = 0.01, …).
type Config struct {
	// C is the SimRank decay factor in (0,1).
	C float64
	// Eps is the additive error bound ε.
	Eps float64
	// Delta is the per-query failure probability δ.
	Delta float64
	// Iterations overrides the theory-derived Monte-Carlo iteration
	// count where the family has one (crashsim, probesim).
	Iterations int
	// Workers bounds estimator and index-build parallelism. Results are
	// identical for any value.
	Workers int
	// Seed makes all randomness deterministic.
	Seed uint64

	// ReadsR is READS' stored-walks-per-node parameter r (default 100).
	ReadsR int
	// ReadsRQ is READS' query-time refinement walk count r_q.
	ReadsRQ int
	// SlingDSamples is SLING's per-node d(x) sample count (default 120).
	SlingDSamples int
	// HubFraction is PRSim's eagerly indexed fraction of nodes by
	// in-degree rank (default 0.05).
	HubFraction float64
	// PRSimDSamples is PRSim's per-node d(w) sample count (default 120).
	PRSimDSamples int
	// ExactIterations is the Power Method iteration count (default 55).
	ExactIterations int
	// ExactMaxNodes is the Power Method's all-pairs memory guard
	// (default 8192; -1 disables).
	ExactMaxNodes int

	// SlingIndex, if non-nil, is a prebuilt SLING index (typically
	// loaded from a snapshot, see internal/store) that the sling backend
	// uses instead of paying a build. New refuses the index unless it
	// was built on the serving graph (matched by graph version) with the
	// build options this Config implies — a preloaded index must be
	// indistinguishable from a freshly built one.
	SlingIndex *sling.Index
	// ReadsIndex is the READS equivalent of SlingIndex.
	ReadsIndex *reads.Index
	// PRSimIndex is the PRSim equivalent of SlingIndex. Because PRSim
	// caches tail tables lazily, a preloaded index may also carry warm
	// tail entries from a previous process — they never change results.
	PRSimIndex *prsim.Index

	// Metrics selects the registry receiving this estimator's
	// per-backend query counts, error/cancellation counts and latency
	// histograms (see internal/obs). Nil means obs.Default; tests and
	// multi-tenant servers pass private registries for isolation.
	Metrics *obs.Registry
}

// Builder constructs one family's Estimator over g. Index-based
// families do their whole build here and must honor ctx.
type Builder func(ctx context.Context, g *graph.Graph, cfg Config) (Estimator, error)

var registry = map[string]Builder{
	"crashsim": newCrashSim,
	"probesim": newProbeSim,
	"sling":    newSLING,
	"reads":    newREADS,
	"prsim":    newPRSim,
	"exact":    newExact,
}

// Register adds (or replaces) a named backend. It exists so downstream
// experiments can plug additional families into every engine consumer
// at once; the five paper families are pre-registered.
func Register(name string, b Builder) {
	registry[name] = b
}

// Names returns the registered backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds the named estimator over g. Index-based families pay their
// full index construction here (respecting ctx); the returned Estimator
// then serves concurrent queries.
func New(ctx context.Context, name string, g *graph.Graph, cfg Config) (Estimator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown backend %q (have %v)", name, Names())
	}
	if g == nil {
		return nil, fmt.Errorf("engine: graph must not be nil")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	est, err := b(ctx, g, cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: building %s: %w", name, err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	return meter(est, newBackendMetrics(reg, name)), nil
}

// TopK answers the top-k query through est: natively when est
// implements TopKer, otherwise by ranking a full single-source pass
// with core.Top. The source u is excluded from the result.
func TopK(ctx context.Context, est Estimator, u graph.NodeID, k int) ([]core.TopKResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("engine: top-k needs k >= 1, got %d", k)
	}
	if t, ok := est.(TopKer); ok {
		return t.TopK(ctx, u, k)
	}
	scores, err := est.SingleSource(ctx, u, nil)
	if err != nil {
		return nil, err
	}
	return core.Top(scores, u, k), nil
}

// Pair answers sim(u, v) through est: natively when est implements
// Pairer, otherwise from a single-source pass restricted to v.
func Pair(ctx context.Context, est Estimator, u, v graph.NodeID) (float64, error) {
	if p, ok := est.(Pairer); ok {
		return p.Pair(ctx, u, v)
	}
	scores, err := est.SingleSource(ctx, u, []graph.NodeID{v})
	if err != nil {
		return 0, err
	}
	return scores[v], nil
}

// MultiSource answers a batch of single-source queries through est:
// natively when est implements MultiSourcer, otherwise by a sequential
// loop of SingleSource calls. Every entry of the result corresponds to
// the same position of sources. On a mid-batch failure the fallback
// returns the completed prefix together with the error (so a canceled
// batch's partial results carry ctx.Err()); the native path is
// all-or-nothing and returns nil results on error.
func MultiSource(ctx context.Context, est Estimator, sources []graph.NodeID) ([]core.Scores, error) {
	if m, ok := est.(MultiSourcer); ok {
		return m.MultiSource(ctx, sources)
	}
	out := make([]core.Scores, 0, len(sources))
	for _, u := range sources {
		s, err := est.SingleSource(ctx, u, nil)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// restrict filters a full score map down to a candidate set, keeping
// the engine's "every requested candidate appears" contract for
// families without a native partial mode.
func restrict(full core.Scores, omega []graph.NodeID, n int) (core.Scores, error) {
	if omega == nil {
		return full, nil
	}
	out := make(core.Scores, len(omega))
	for _, v := range omega {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("engine: candidate %d out of range for n=%d", v, n)
		}
		out[v] = full[v]
	}
	return out, nil
}
