package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"crashsim/internal/cache"
	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// contractStep is one query of TestEstimatorContract's fixed sequence.
type contractStep struct {
	name string
	// bit is the operation's native bit (0 for SingleSource), and op the
	// per-op counter that a native answer ticks once.
	bit ops
	op  string
	// Queries the backend answers: through New, and through Cached when
	// the backend answers natively or falls back. Cached counts are lower
	// because earlier steps have already filled the "ss" keys.
	viaNew, cachedNative, cachedFallback uint64
	call                                 func(ctx context.Context, est Estimator) (any, error)
}

var contractSteps = []contractStep{
	{"singlesource", 0, "singlesource", 1, 1, 1, func(ctx context.Context, est Estimator) (any, error) {
		return est.SingleSource(ctx, 3, nil)
	}},
	// A fallback top-k is ss|3 plus core.Top, so on Cached it hits the
	// entry the previous step filled.
	{"topk", opTopK, "topk", 1, 1, 0, func(ctx context.Context, est Estimator) (any, error) {
		return TopK(ctx, est, 3, 5)
	}},
	{"singlesource-omega", 0, "singlesource", 1, 1, 1, func(ctx context.Context, est Estimator) (any, error) {
		return est.SingleSource(ctx, 3, []graph.NodeID{4})
	}},
	// A fallback pair is ssw|3|4, filled by the previous step.
	{"pair", opPair, "pair", 1, 1, 0, func(ctx context.Context, est Estimator) (any, error) {
		return Pair(ctx, est, 3, 4)
	}},
	// Through Cached only source 0 is missing, and only once.
	{"multisource", opMulti, "multisource", 3, 1, 1, func(ctx context.Context, est Estimator) (any, error) {
		return MultiSource(ctx, est, []graph.NodeID{0, 3, 0})
	}},
}

// TestEstimatorContract checks every backend through New and through
// Cached(New) against the unwrapped backend: the same bits for every
// operation, the native set of the backend (not of the wrapper), the
// engine.<backend>.queries* counters a native answer or a fallback
// ticks, cache hits for fallbacks served from single-source keys, and
// that a nil ctx means context.Background().
func TestEstimatorContract(t *testing.T) {
	g := testGraph(t)
	ctx := context.Background()
	wantNative := map[string]ops{"crashsim": opTopK | opPair | opMulti, "prsim": opMulti, "exact": opPair}
	for _, name := range Names() {
		raw, err := registry[name](ctx, g, testConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := nativeOps(raw); got != wantNative[name] {
			t.Fatalf("%s: native set %03b, want %03b", name, got, wantNative[name])
		}
		want := make([]any, len(contractSteps))
		for i, s := range contractSteps {
			if want[i], err = s.call(ctx, raw); err != nil {
				t.Fatalf("%s %s: %v", name, s.name, err)
			}
		}
		for _, wrapped := range []bool{false, true} {
			for _, nilCtx := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/cached=%t/nilctx=%t", name, wrapped, nilCtx), func(t *testing.T) {
					checkContract(t, name, g, wrapped, nilCtx, wantNative[name], want)
				})
			}
		}
	}
}

func checkContract(t *testing.T, name string, g *graph.Graph, wrapped, nilCtx bool, native ops, want []any) {
	reg, creg := obs.NewRegistry(), obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	est, err := New(context.Background(), name, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped {
		qc, err := cache.New(cache.Config{MaxBytes: 8 << 20, Metrics: creg})
		if err != nil {
			t.Fatal(err)
		}
		if est, err = Cached(est, CacheConfig{Cache: qc, Version: g.Version, Scope: cfg.Fingerprint()}); err != nil {
			t.Fatal(err)
		}
	}
	if est.Name() != name {
		t.Errorf("Name() = %q, want %q", est.Name(), name)
	}
	if _, ok := est.(interface {
		TopKer
		Pairer
		MultiSourcer
	}); !ok {
		t.Error("wrapped estimator does not answer every operation")
	}
	if got := nativeOps(est); got != native {
		t.Errorf("wrapper reports native set %03b, backend has %03b", got, native)
	}

	ctx := context.Background()
	if nilCtx {
		ctx = nil
	}
	counter := func(op string) uint64 { return reg.Counter("engine." + name + ".queries" + op).Load() }
	for i, s := range contractSteps {
		isNative := s.bit != 0 && native&s.bit != 0
		n := s.viaNew
		if wrapped && isNative {
			n = s.cachedNative
		} else if wrapped {
			n = s.cachedFallback
		}
		wantTicks := map[string]uint64{"": n, ".singlesource": n, ".topk": 0, ".pair": 0, ".multisource": 0}
		if isNative {
			wantTicks[".singlesource"] = 0
			if n > 0 {
				wantTicks["."+s.op] = 1
			}
		}
		before := map[string]uint64{}
		for op := range wantTicks {
			before[op] = counter(op)
		}
		hits, misses := creg.Counter("cache.hits").Load(), creg.Counter("cache.misses").Load()

		got, err := s.call(ctx, est)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !sameBits(got, want[i]) {
			t.Errorf("%s: result differs from the unwrapped backend", s.name)
		}
		for op, w := range wantTicks {
			if d := counter(op) - before[op]; d != w {
				t.Errorf("%s: queries%s rose by %d, want %d", s.name, op, d, w)
			}
		}
		if wrapped && n == 0 {
			if h, m := creg.Counter("cache.hits").Load()-hits, creg.Counter("cache.misses").Load()-misses; h != 1 || m != 0 {
				t.Errorf("%s: %d cache hits and %d misses, want 1 and 0", s.name, h, m)
			}
		}
	}
}

// sameBits compares two query results bit for bit.
func sameBits(a, b any) bool {
	switch a := a.(type) {
	case core.Scores:
		b := b.(core.Scores)
		if len(a) != len(b) {
			return false
		}
		for v, s := range a {
			if t, ok := b[v]; !ok || math.Float64bits(s) != math.Float64bits(t) {
				return false
			}
		}
		return true
	case []core.Scores:
		b := b.([]core.Scores)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !sameBits(a[i], b[i]) {
				return false
			}
		}
		return true
	case []core.TopKResult:
		b := b.([]core.TopKResult)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
				return false
			}
		}
		return true
	case float64:
		return math.Float64bits(a) == math.Float64bits(b.(float64))
	}
	return false
}
