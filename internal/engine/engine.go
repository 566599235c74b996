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

// TopKer is implemented by backends with a native top-k schedule
// (CrashSim's coarse-then-refine partial mode). The estimators New and
// Cached return implement TopKer, Pairer and MultiSourcer whatever the
// backend: an operation the backend lacks runs its generic fallback.
// Use the package-level TopK for a uniform entry point.
type TopKer interface {
	TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error)
}

// Pairer is implemented by backends that can answer sim(u, v) cheaper
// than a full single-source pass. Use the package-level Pair for a
// uniform entry point with a generic fallback.
type Pairer interface {
	Pair(ctx context.Context, u, v graph.NodeID) (float64, error)
}

// MultiSourcer is implemented by backends with a native batch mode
// (CrashSim's one-compile-per-source, one-fan-out pipeline). The result
// is parallel to sources and each entry is bit-identical to the
// corresponding SingleSource call; on error the whole batch fails and
// the result is nil. Use the package-level MultiSource for a uniform
// entry point with a sequential-loop fallback (whose error semantics
// MultiSource documents).
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
	ctx = orBackground(ctx)
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
	return &metered{inner: est, native: nativeOps(est), m: newBackendMetrics(reg, name)}, nil
}

// ops is a set of optional operations an estimator answers natively.
type ops uint8

const (
	opTopK ops = 1 << iota
	opPair
	opMulti
)

// nativeOps returns the operations est answers natively. The wrappers
// in this package answer every operation, natively or through a
// fallback, so they report the set of the estimator they wrap instead.
func nativeOps(est Estimator) ops {
	if w, ok := est.(interface{ ops() ops }); ok {
		return w.ops()
	}
	var o ops
	if _, ok := est.(TopKer); ok {
		o |= opTopK
	}
	if _, ok := est.(Pairer); ok {
		o |= opPair
	}
	if _, ok := est.(MultiSourcer); ok {
		o |= opMulti
	}
	return o
}

// orBackground treats a nil ctx as context.Background().
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// TopK answers the top-k query through est: natively when est
// implements TopKer, otherwise by ranking a full single-source result
// with core.Result.Top. The source u is excluded from the result.
func TopK(ctx context.Context, est Estimator, u graph.NodeID, k int) ([]core.TopKResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("engine: top-k needs k >= 1, got %d", k)
	}
	if t, ok := est.(TopKer); ok {
		return t.TopK(ctx, u, k)
	}
	return topKFallback(ctx, est, u, k)
}

func topKFallback(ctx context.Context, est Estimator, u graph.NodeID, k int) ([]core.TopKResult, error) {
	r, err := resultOf(ctx, est, u, nil)
	if err != nil {
		return nil, err
	}
	return r.Top(u, k), nil
}

// resulter is how the serving path reads answers as core.Results, with
// no map: result answers one source (restricted to omega when omega is
// non-nil) and batch answers several, parallel to sources, the way
// SingleSource and a native MultiSource do. Results are immutable and
// may be shared; a batch gives duplicate sources the same one. The
// crashsim and prsim adapters build them straight from their dense
// accumulators, and their public SingleSource and MultiSource are map
// views of them; the metering and caching wrappers pass them through.
type resulter interface {
	result(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Result, error)
	batch(ctx context.Context, sources []graph.NodeID) ([]core.Result, error)
}

// resultOf answers one source through est: through its result method
// when it has one, otherwise by converting its map answer once
// (core.ResultOf).
func resultOf(ctx context.Context, est Estimator, u graph.NodeID, omega []graph.NodeID) (core.Result, error) {
	if r, ok := est.(resulter); ok {
		return r.result(ctx, u, omega)
	}
	s, err := est.SingleSource(ctx, u, omega)
	if err != nil {
		return core.Result{}, err
	}
	return core.ResultOf(s), nil
}

// batchOf answers a batch through est: through its batch method when it
// has one, otherwise by converting MultiSource's map answers once. It
// fails the whole batch on any error.
func batchOf(ctx context.Context, est Estimator, sources []graph.NodeID) ([]core.Result, error) {
	if r, ok := est.(resulter); ok {
		return r.batch(ctx, sources)
	}
	all, err := MultiSource(ctx, est, sources)
	if err != nil {
		return nil, err
	}
	out := make([]core.Result, len(all))
	for i, s := range all {
		out[i] = core.ResultOf(s)
	}
	return out, nil
}

// eachSource answers a batch a source at a time through one, failing the
// whole batch on the first error.
func eachSource(ctx context.Context, sources []graph.NodeID,
	one func(context.Context, graph.NodeID, []graph.NodeID) (core.Result, error)) ([]core.Result, error) {
	out := make([]core.Result, len(sources))
	for i, u := range sources {
		r, err := one(ctx, u, nil)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// single and multi are the public map views of a resulter's answers:
// every call gets maps of its own, duplicate sources included.
func single(ctx context.Context, r resulter, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	res, err := r.result(ctx, u, omega)
	if err != nil {
		return nil, err
	}
	return res.Map(), nil
}

func multi(ctx context.Context, r resulter, sources []graph.NodeID) ([]core.Scores, error) {
	rs, err := r.batch(ctx, sources)
	if err != nil {
		return nil, err
	}
	out := make([]core.Scores, len(rs))
	for i, res := range rs {
		out[i] = res.Map()
	}
	return out, nil
}

// Ranked ranks each source's full single-source result with
// core.Result.Top (the source itself excluded), answering entry i for
// sources[i]. A single source runs one single-source query, several run
// one MultiSource batch. It reads results, not maps: the cached
// estimator ranks its canonical cached results in place, so a hit
// copies nothing, and a miss on crashsim or prsim builds no map.
func Ranked(ctx context.Context, est Estimator, sources []graph.NodeID, k int) ([][]core.TopKResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("engine: ranking needs k >= 1, got %d", k)
	}
	ctx = orBackground(ctx)
	if len(sources) == 1 {
		top, err := topKFallback(ctx, est, sources[0], k)
		if err != nil {
			return nil, err
		}
		return [][]core.TopKResult{top}, nil
	}
	rs, err := batchOf(ctx, est, sources)
	if err != nil {
		return nil, err
	}
	out := make([][]core.TopKResult, len(rs))
	for i, r := range rs {
		out[i] = r.Top(sources[i], k)
	}
	return out, nil
}

// Pair answers sim(u, v) through est: natively when est implements
// Pairer, otherwise from a single-source pass restricted to v.
func Pair(ctx context.Context, est Estimator, u, v graph.NodeID) (float64, error) {
	if p, ok := est.(Pairer); ok {
		return p.Pair(ctx, u, v)
	}
	return pairFallback(ctx, est, u, v)
}

func pairFallback(ctx context.Context, est Estimator, u, v graph.NodeID) (float64, error) {
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
	return multiFallback(ctx, sources, est.SingleSource)
}

// singleFunc is the shape of Estimator.SingleSource.
type singleFunc func(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error)

func multiFallback(ctx context.Context, sources []graph.NodeID, one singleFunc) ([]core.Scores, error) {
	out := make([]core.Scores, 0, len(sources))
	for _, u := range sources {
		s, err := one(ctx, u, nil)
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
	if err := checkCandidates(omega, n); err != nil {
		return nil, err
	}
	out := make(core.Scores, len(omega))
	for _, v := range omega {
		out[v] = full[v]
	}
	return out, nil
}

func checkCandidates(omega []graph.NodeID, n int) error {
	for _, v := range omega {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("engine: candidate %d out of range for n=%d", v, n)
		}
	}
	return nil
}
