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
// node builds a tail table, and at n_q = 20 the every-64-walks check
// never fires. A query whose deadline has passed before it starts
// builds nothing; one whose deadline passes after the entry check
// returns ctx.Err() after its first tail build instead of building
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
		_, err = ix.SingleSourceCtx(&expiringCtx{Context: context.Background(), live: 1}, u)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("source %d, deadline passing mid-query: err %v", u, err)
		}
		if b := ix.Stats().TailBuilds; b > 1 {
			t.Errorf("source %d: query past its deadline built %d tail tables, want at most 1", u, b)
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

func mustBuild(t *testing.T, g *graph.Graph, opt Options) *Index {
	t.Helper()
	ix, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}
