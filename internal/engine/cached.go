package engine

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"crashsim/internal/cache"
	"crashsim/internal/core"
	"crashsim/internal/graph"
)

// Result caching. CrashSim's Monte-Carlo estimates are deterministic
// for a fixed seed and fixed parameters, so a computed result is
// bit-correct for every later identical request against the same graph
// state. Cached wraps an Estimator with a cache.Cache so repeated
// queries are served from memory and N concurrent identical queries
// trigger exactly one backend computation (singleflight coalescing in
// the cache layer).
//
// Cache keys fold together everything that determines a result:
//
//	scope | backend name | graph version | op | query arguments
//
// Scope carries the effective-parameter fingerprint (Config.Fingerprint)
// so one shared cache.Cache can serve estimators with different
// parameters, and the graph version (graph.Graph.Version, re-read on
// every request) invalidates entries the moment an edge update or
// temporal snapshot advance produces a new version — stale entries are
// never served, they just stop being addressable and age out of the
// LRU.
//
// Like the metrics wrapper, the cached estimator answers every
// operation. One the wrapped estimator answers natively is cached under
// its own key ("topk", "pair"); any other runs the package fallback
// through the cached estimator, so it is served from the single-source
// keys it is made of — a top-k query for a source whose single-source
// result is cached costs no computation.
//
// Multi-source batches probe per source key — the same "ss" keys
// single-source queries use, so a batch warms the cache for later
// single queries and vice versa — and only the missing sources are
// computed, as one inner batch. The fill goes through Do per missing
// key, so concurrent identical requests still coalesce to one
// computation per source.
//
// Each single-source result is stored once, as a canonical
// core.Result: immutable, so every reader shares it. SingleSource and
// MultiSource are public estimator calls (crashsim.NewCachedEstimator
// wraps this one) whose callers may mutate what they get back, so they
// hand out fresh maps of it (core.Result.Map). Ranked (see
// engine.Ranked) and the top-k fallback read the canonical results
// themselves, so a hit copies nothing. A native top-k list is cached
// as is and cloned on return; pair scores are values and need no
// cloning.

// CacheConfig wires an Estimator to a result cache.
type CacheConfig struct {
	// Cache is the backing store, required. It may be shared by several
	// wrapped estimators; Scope and the backend name keep their entries
	// apart.
	Cache *cache.Cache
	// Version reports the served graph's current version; it is re-read
	// on every request so bumps take effect immediately. Nil means the
	// graph never changes (version fixed at 0) — correct for
	// Builder-frozen graphs, wrong for anything mutable.
	Version func() uint64
	// Scope namespaces this estimator's entries, typically the
	// effective-parameter fingerprint (Config.Fingerprint). Estimators
	// sharing a Cache must not share a (Scope, backend name) pair unless
	// they are interchangeable.
	Scope string
}

// Fingerprint returns a canonical string of every configuration field
// that affects query results, for use as a cache key scope. Workers is
// excluded (results are identical for any worker count, so caching
// across worker settings is both safe and desirable), as is Metrics.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("c=%g,eps=%g,delta=%g,it=%d,seed=%d,rr=%d,rq=%d,ds=%d,hf=%g,pds=%d,xi=%d,xm=%d",
		c.C, c.Eps, c.Delta, c.Iterations, c.Seed,
		c.ReadsR, c.ReadsRQ, c.SlingDSamples, c.HubFraction, c.PRSimDSamples,
		c.ExactIterations, c.ExactMaxNodes)
}

// Cached wraps est so query results are cached in cc.Cache and
// concurrent identical queries are coalesced. It fails fast on a nil
// cache rather than silently serving uncached.
func Cached(est Estimator, cc CacheConfig) (Estimator, error) {
	if cc.Cache == nil {
		return nil, fmt.Errorf("engine: CacheConfig.Cache must not be nil")
	}
	if cc.Version == nil {
		cc.Version = func() uint64 { return 0 }
	}
	return &cached{inner: est, native: nativeOps(est), cc: cc, prefix: cc.Scope + "|" + est.Name() + "|"}, nil
}

type cached struct {
	inner  Estimator
	native ops
	cc     CacheConfig
	prefix string // scope|backend| — shared by every key
}

func (e *cached) ops() ops { return e.native }

func (e *cached) Name() string { return e.inner.Name() }

// key assembles scope|backend|version|op|args at the current graph
// version.
func (e *cached) key(op string, args ...int64) string {
	return e.keyAt(e.cc.Version(), op, args...)
}

// keyAt is key with a caller-pinned graph version, so a multi-source
// batch addresses one consistent version across all its probes.
func (e *cached) keyAt(version uint64, op string, args ...int64) string {
	var b strings.Builder
	b.Grow(len(e.prefix) + len(op) + 8 + 16*len(args))
	b.WriteString(e.prefix)
	b.WriteString(strconv.FormatUint(version, 10))
	b.WriteByte('|')
	b.WriteString(op)
	for _, a := range args {
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(a, 10))
	}
	return b.String()
}

// Accounted sizes are estimates of in-memory footprint, not exact
// byte counts. A single-source result is charged per entry what a
// NodeID→float64 map of it would take, so a byte budget holds as many
// results as it would maps; the result itself takes 12 bytes an entry
// (8 when it shares the all-nodes list), so the budget overstates it.
const (
	scoresEntrySize = 48 // NodeID key + float64 value + map bucket overhead
	scoresBaseSize  = 64
	topKEntrySize   = 16 // TopKResult{int32, float64} + padding
	topKBaseSize    = 64
	pairSize        = 16
)

func (e *cached) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	return single(ctx, e, u, omega)
}

// result returns the canonical cached result of sim(u, ·), computing
// and caching it on a miss. The cache charges it as many bytes as a map
// of the same length.
func (e *cached) result(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Result, error) {
	ctx = orBackground(ctx)
	args := make([]int64, 0, 1+len(omega))
	args = append(args, int64(u))
	for _, v := range omega {
		args = append(args, int64(v))
	}
	op := "ss"
	if omega != nil {
		op = "ssw" // distinguishes a nil omega from an empty one
	}
	v, _, err := e.cc.Cache.Do(ctx, e.key(op, args...), func(ctx context.Context) (any, int64, error) {
		r, err := resultOf(ctx, e.inner, u, omega)
		if err != nil {
			return nil, 0, err
		}
		return r, resultSize(r), nil
	})
	if err != nil {
		return core.Result{}, err
	}
	return v.(core.Result), nil
}

// resultSize is the bytes the cache charges for a result.
func resultSize(r core.Result) int64 {
	return scoresBaseSize + scoresEntrySize*int64(r.Len())
}

func (e *cached) TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error) {
	ctx = orBackground(ctx)
	if e.native&opTopK == 0 {
		return topKFallback(ctx, e, u, k)
	}
	v, _, err := e.cc.Cache.Do(ctx, e.key("topk", int64(u), int64(k)), func(ctx context.Context) (any, int64, error) {
		r, err := e.inner.(TopKer).TopK(ctx, u, k)
		if err != nil {
			return nil, 0, err
		}
		return r, topKBaseSize + topKEntrySize*int64(len(r)), nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Clone(v.([]core.TopKResult)), nil
}

func (e *cached) Pair(ctx context.Context, u, v graph.NodeID) (float64, error) {
	ctx = orBackground(ctx)
	if e.native&opPair == 0 {
		return pairFallback(ctx, e, u, v)
	}
	r, _, err := e.cc.Cache.Do(ctx, e.key("pair", int64(u), int64(v)), func(ctx context.Context) (any, int64, error) {
		s, err := e.inner.(Pairer).Pair(ctx, u, v)
		if err != nil {
			return nil, 0, err
		}
		return s, pairSize, nil
	})
	if err != nil {
		return 0, err
	}
	return r.(float64), nil
}

// MultiSource serves a batch through the cache (see batch) and hands
// back fresh maps: the canonical results stay private to the cache, and
// duplicate sources must not alias each other.
func (e *cached) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	ctx = orBackground(ctx)
	if e.native&opMulti == 0 {
		return multiFallback(ctx, sources, e.SingleSource)
	}
	return multi(ctx, e, sources)
}

// batch returns the canonical cached results of a batch; duplicate
// sources share one result. Without a native batch mode it is a loop
// of cached single-source queries. With one, it probes each source's
// "ss" key (keys are assembled once up front, pinning one graph version
// for the whole batch), serves the hits from memory, and computes only
// the missing sources — deduplicated — as one inner batch. The inner
// call runs lazily inside the first missing key's Do fill, so a source
// another goroutine is already computing is waited on (singleflight)
// rather than recomputed, and a fully cached batch never touches the
// backend.
func (e *cached) batch(ctx context.Context, sources []graph.NodeID) ([]core.Result, error) {
	ctx = orBackground(ctx)
	if e.native&opMulti == 0 {
		return eachSource(ctx, sources, e.result)
	}
	out := make([]core.Result, len(sources))
	var missUniq []graph.NodeID
	missKey := make(map[graph.NodeID]string)
	version := e.cc.Version()
	for i, u := range sources {
		if _, ok := missKey[u]; ok {
			continue // a batch-mate already probes (or fills) this source
		}
		key := e.keyAt(version, "ss", int64(u))
		// Probe, not Get: a miss is counted once, by the Do that fills it.
		if v, ok := e.cc.Cache.Probe(key); ok {
			out[i] = v.(core.Result)
			continue
		}
		missKey[u] = key
		missUniq = append(missUniq, u)
	}

	// One lazy inner batch shared by every missing key's fill closure:
	// whichever Do actually computes first triggers it; the rest read
	// their source's result out of the finished batch.
	var computed map[graph.NodeID]core.Result
	var batchErr error
	fill := func(ctx context.Context) error {
		if computed == nil && batchErr == nil {
			res, err := batchOf(ctx, e.inner, missUniq)
			if err != nil {
				batchErr = err
			} else {
				computed = make(map[graph.NodeID]core.Result, len(missUniq))
				for j, u := range missUniq {
					computed[u] = res[j]
				}
			}
		}
		return batchErr
	}
	for _, u := range missUniq {
		v, _, err := e.cc.Cache.Do(ctx, missKey[u], func(ctx context.Context) (any, int64, error) {
			if err := fill(ctx); err != nil {
				return nil, 0, err
			}
			r := computed[u]
			return r, resultSize(r), nil
		})
		if err != nil {
			return nil, err
		}
		canon := v.(core.Result)
		for i, src := range sources {
			if src == u {
				out[i] = canon
			}
		}
	}
	return out, nil
}
