package prsim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"crashsim/internal/graph"
)

// expiringCtx answers Err with nil for its first live calls and with
// DeadlineExceeded after, so a test expires a query's deadline at a
// fixed point of its loop. It serves one goroutine.
type expiringCtx struct {
	context.Context
	live int
}

func (c *expiringCtx) Err() error {
	if c.live > 0 {
		c.live--
		return nil
	}
	return context.DeadlineExceeded
}

// TestQueryStopsAfterOneTailBuild: with no hubs every visit of a cold
// node builds a tail table, and at n_q = 20 the walks check ctx once,
// before walk 0. A query whose deadline has passed before it starts
// builds nothing. At width 1 a query then checks ctx twice before each
// tail build: the fan-out's check before the item and the build's own.
// So a deadline that passes after three checks (the walks', then both
// of the first build's) lets exactly one build run: the query returns
// ctx.Err() at the check before the second build instead of building
// every table its walks reach. That build is published and correct: a
// full query afterwards scores bit-identically to one on a fresh index.
func TestQueryStopsAfterOneTailBuild(t *testing.T) {
	g := testGraph(t, 200, 1400, 3)
	opt := Options{HubFraction: 0.001, Iterations: 20, DSamples: 20, Seed: 5}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for u := graph.NodeID(0); u < 10; u++ {
		ref, ix := mustBuild(t, g, opt), mustBuild(t, g, opt)
		if ref.HubCount() != 0 {
			t.Fatalf("index has %d hubs, want none", ref.HubCount())
		}
		want, err := ref.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		if b := ref.Stats().TailBuilds; b < 2 {
			t.Fatalf("source %d: a full query builds %d tail tables, need at least 2", u, b)
		}
		if _, err := ix.SingleSourceCtx(expired, u); !errors.Is(err, context.Canceled) {
			t.Fatalf("source %d, canceled context: err %v", u, err)
		}
		if b := ix.Stats().TailBuilds; b != 0 {
			t.Fatalf("source %d: canceled query built %d tail tables", u, b)
		}
		_, err = ix.SingleSourceCtx(&expiringCtx{Context: context.Background(), live: 3}, u)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("source %d, deadline passing after the first build: err %v", u, err)
		}
		if b := ix.Stats().TailBuilds; b != 1 {
			t.Errorf("source %d: query whose deadline passed during its first build built %d tail tables, want 1", u, b)
		}
		got, err := ix.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("source %d: scores after an aborted query differ from a fresh index", u)
		}
	}
}

// buildCtx reports its deadline passed once ix has built a tail table,
// so a query's deadline passes while its first build runs. It is safe
// for concurrent use.
type buildCtx struct {
	context.Context
	ix *Index
}

func (c buildCtx) Err() error {
	if c.ix.Stats().TailBuilds > 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestQueryStopsAfterOneTailBuildPerWorker: a query whose deadline
// passes during its first tail build starts no build after that, so
// each worker runs at most the build it had started: one at width 1,
// two at width 2. The aborted query's tables leave a full query's
// scores bit-identical to a fresh index's.
func TestQueryStopsAfterOneTailBuildPerWorker(t *testing.T) {
	g := testGraph(t, 200, 1400, 3)
	for _, workers := range []int{1, 2} {
		opt := Options{HubFraction: 0.001, Iterations: 20, DSamples: 20, Seed: 5, Workers: workers}
		for u := graph.NodeID(0); u < 10; u++ {
			ref, ix := mustBuild(t, g, opt), mustBuild(t, g, opt)
			want, err := ref.SingleSource(u)
			if err != nil {
				t.Fatal(err)
			}
			if b := ref.Stats().TailBuilds; b <= int64(workers) {
				t.Fatalf("width %d, source %d: a full query builds %d tail tables, need more than %d", workers, u, b, workers)
			}
			_, err = ix.SingleSourceCtx(buildCtx{Context: context.Background(), ix: ix}, u)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("width %d, source %d, deadline passing mid-build: err %v", workers, u, err)
			}
			if b := ix.Stats().TailBuilds; b < 1 || b > int64(workers) {
				t.Errorf("width %d, source %d: query past its deadline built %d tail tables, want 1 to %d", workers, u, b, workers)
			}
			got, err := ix.SingleSource(u)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("width %d, source %d: scores after an aborted query differ from a fresh index", workers, u)
			}
		}
	}
}

func mustBuild(t *testing.T, g *graph.Graph, opt Options) *Index {
	t.Helper()
	ix, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}
