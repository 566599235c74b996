package core

import (
	"context"
	"fmt"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func multiTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	edges, err := gen.ErdosRenyi(40, 120, true, 51)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(40, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMultiSourceMatchesSingleSource is the batch/sequential
// equivalence contract: for every meeting rule and for worker counts
// 1 vs N, the batched pipeline must reproduce sequential scores
// bit-for-bit — SingleSourceCtx's, and with legacy=true the reference
// kernel's (legacySingleSource). Run with -race this also exercises the
// shared-arena fan-out for data races.
func TestMultiSourceMatchesSingleSource(t *testing.T) {
	g := multiTestGraph(t)
	sources := []graph.NodeID{0, 7, 13, 39}
	for _, rule := range []MeetingRule{MeetingFirstMeet, MeetingAny, MeetingFirstCrash} {
		for _, legacy := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%v/legacy=%v/workers=%d", rule, legacy, workers)
				t.Run(name, func(t *testing.T) {
					p := Params{
						Iterations: 150, Seed: 3, Workers: workers,
						Meeting: rule,
					}
					batch, err := MultiSource(context.Background(), g, sources, nil, p)
					if err != nil {
						t.Fatal(err)
					}
					if len(batch) != len(sources) {
						t.Fatalf("batch has %d entries, want %d", len(batch), len(sources))
					}
					single := p
					single.Workers = 1
					for i, u := range sources {
						var want Scores
						if legacy {
							want, err = legacySingleSource(g, u, nil, single)
						} else {
							want, err = SingleSourceCtx(context.Background(), g, u, nil, single)
						}
						if err != nil {
							t.Fatal(err)
						}
						got := batch[i]
						if len(got) != len(want) {
							t.Fatalf("source %d: %d vs %d entries", u, len(got), len(want))
						}
						for v := range want {
							if got[v] != want[v] {
								t.Errorf("source %d node %d: batch %g != single %g", u, v, got[v], want[v])
							}
						}
					}
				})
			}
		}
	}
}

// TestMultiSourceOmega: a restricted candidate set must apply to every
// source of the batch and match the per-source partial queries.
func TestMultiSourceOmega(t *testing.T) {
	g := multiTestGraph(t)
	sources := []graph.NodeID{2, 11}
	omega := []graph.NodeID{0, 2, 5, 11, 17, 30}
	p := Params{Iterations: 120, Seed: 9, Workers: 2}
	batch, err := MultiSource(context.Background(), g, sources, omega, p)
	if err != nil {
		t.Fatal(err)
	}
	single := p
	single.Workers = 1
	for i, u := range sources {
		want, err := SingleSourceCtx(context.Background(), g, u, omega, single)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(omega) {
			t.Fatalf("source %d: %d entries, want %d", u, len(batch[i]), len(omega))
		}
		for v := range want {
			if batch[i][v] != want[v] {
				t.Errorf("source %d node %d: batch %g != partial %g", u, v, batch[i][v], want[v])
			}
		}
	}
}

// TestMultiSourceDuplicates: repeated sources must be deduplicated into
// one sampling pass yet come back as independent result maps.
func TestMultiSourceDuplicates(t *testing.T) {
	g := multiTestGraph(t)
	sources := []graph.NodeID{5, 9, 5, 5, 9}
	before := statBatchDedup.Load()
	batch, err := MultiSource(context.Background(), g, sources, nil, Params{Iterations: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := statBatchDedup.Load() - before; got != 3 {
		t.Errorf("dedup_hits advanced by %d, want 3", got)
	}
	for _, pair := range [][2]int{{0, 2}, {0, 3}, {1, 4}} {
		a, b := batch[pair[0]], batch[pair[1]]
		if len(a) != len(b) {
			t.Fatalf("positions %v: %d vs %d entries", pair, len(a), len(b))
		}
		for v := range a {
			if a[v] != b[v] {
				t.Errorf("positions %v node %d: %g != %g", pair, v, a[v], b[v])
			}
		}
	}
	// Results must not alias: mutating one duplicate's map leaves the
	// others untouched.
	batch[0][5] = -1
	if batch[2][5] == -1 || batch[3][5] == -1 {
		t.Error("duplicate results alias the same map")
	}
}

// TestMultiSourceCanceled: a canceled context aborts the batch with
// ctx.Err() and no partial result.
func TestMultiSourceCanceled(t *testing.T) {
	g := multiTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MultiSource(ctx, g, []graph.NodeID{0, 1}, nil, Params{Iterations: 100})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("canceled batch returned results: %v", res)
	}
}

func TestMultiSourceErrors(t *testing.T) {
	g := graph.PaperExample()
	ctx := context.Background()
	if _, err := MultiSource(ctx, g, []graph.NodeID{0, 99}, nil, Params{Iterations: 10}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := MultiSource(ctx, g, []graph.NodeID{0}, []graph.NodeID{42}, Params{Iterations: 10}); err == nil {
		t.Error("out-of-range candidate accepted")
	}
	if _, err := MultiSource(ctx, g, []graph.NodeID{0}, nil, Params{C: 9}); err == nil {
		t.Error("bad params accepted")
	}
	empty, err := MultiSource(ctx, g, nil, nil, Params{Iterations: 10})
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch: %v, %v", empty, err)
	}
}
