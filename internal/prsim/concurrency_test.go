package prsim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func testGraph(t testing.TB, n, m int, seed uint64) *graph.Graph {
	t.Helper()
	edges, err := gen.ChungLu(n, m, 2.0, true, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(n, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCompiledMatchesSkeleton is the differential oracle pinning the
// compiled flat-table Index to the map-based Skeleton it replaced:
// every source on a skewed graph must score bit-identically through
// both paths, at a hub fraction that exercises eager tables, lazy tail
// fill, and the empty-index (pure online) extreme.
func TestCompiledMatchesSkeleton(t *testing.T) {
	g := testGraph(t, 150, 900, 11)
	for _, hf := range []float64{0.001, 0.1, 1.0} {
		opt := Options{HubFraction: hf, Iterations: 80, DSamples: 40, Seed: 4}
		sk, err := NewSkeleton(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sk.HubCount() != ix.HubCount() {
			t.Fatalf("hf=%g: hub counts differ: skeleton %d, compiled %d", hf, sk.HubCount(), ix.HubCount())
		}
		for u := 0; u < g.NumNodes(); u++ {
			want, err := sk.SingleSource(graph.NodeID(u))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.SingleSource(graph.NodeID(u))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("hf=%g source %d: %d scores skeleton vs %d compiled", hf, u, len(want), len(got))
			}
			for v, s := range want {
				if math.Float64bits(got[v]) != math.Float64bits(s) {
					t.Fatalf("hf=%g source %d node %d: compiled %v vs skeleton %v", hf, u, v, got[v], s)
				}
			}
		}
	}
}

// TestConcurrentColdQueries hammers a cold index (almost no eager
// hubs, so nearly every table goes through the lazy singleflight fill)
// with concurrent SingleSourceCtx queries and checks each result
// bit-identical to a sequential reference. Run under -race this is the
// concurrency guarantee the compiled index exists to provide.
func TestConcurrentColdQueries(t *testing.T) {
	g := testGraph(t, 200, 1400, 3)
	opt := Options{HubFraction: 0.001, Iterations: 60, DSamples: 30, Seed: 8}

	ref, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	want := make([]map[graph.NodeID]float64, goroutines)
	sources := make([]graph.NodeID, goroutines)
	for i := range sources {
		// Overlapping sources so goroutines race on the same tail
		// tables, not just distinct ones.
		sources[i] = graph.NodeID((i * 7) % 20)
		if want[i], err = ref.SingleSource(sources[i]); err != nil {
			t.Fatal(err)
		}
	}

	ix, err := Build(g, opt) // cold: no tail tables yet
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := ix.SingleSourceCtx(context.Background(), sources[i])
			if err != nil {
				errs[i] = err
				return
			}
			if !reflect.DeepEqual(got, want[i]) {
				errs[i] = fmt.Errorf("goroutine %d: concurrent result differs from sequential reference", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestIndexEntriesAgreesWithScan: the running counter behind
// IndexEntries must match a full scan over published tables, after the
// eager build and again after queries have filled tail tables.
func TestIndexEntriesAgreesWithScan(t *testing.T) {
	g := testGraph(t, 120, 700, 5)
	ix, err := Build(g, Options{HubFraction: 0.1, Iterations: 50, DSamples: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	scan := func() int {
		total := 0
		for v := range ix.tables {
			if tb := ix.tables[v].Load(); tb != nil {
				total += tb.entries()
			}
		}
		return total
	}
	if got, want := ix.IndexEntries(), scan(); got != want {
		t.Fatalf("after build: IndexEntries = %d, scan = %d", got, want)
	}
	if ix.IndexEntries() == 0 {
		t.Fatal("eager build published no entries")
	}
	for u := 0; u < 30; u++ {
		if _, err := ix.SingleSource(graph.NodeID(u)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ix.IndexEntries(), scan(); got != want {
		t.Fatalf("after queries: IndexEntries = %d, scan = %d", got, want)
	}
	if ix.Stats().TailBuilds == 0 {
		t.Fatal("queries built no tail tables; test exercises nothing")
	}
}

// TestMultiSourceMatchesSequential: a parallel batch with duplicates
// must be bit-identical, entry for entry, to issuing the queries one
// at a time against a fresh index.
func TestMultiSourceMatchesSequential(t *testing.T) {
	g := testGraph(t, 150, 900, 9)
	opt := Options{HubFraction: 0.05, Iterations: 70, DSamples: 25, Seed: 12}
	seq, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	batchOpt := opt
	batchOpt.Workers = 8
	bat, err := Build(g, batchOpt)
	if err != nil {
		t.Fatal(err)
	}
	sources := []graph.NodeID{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	got, err := bat.MultiSource(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sources) {
		t.Fatalf("MultiSource returned %d results for %d sources", len(got), len(sources))
	}
	for i, u := range sources {
		want, err := seq.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch result %d (source %d) differs from sequential query", i, u)
		}
	}
	if _, err := bat.MultiSource(context.Background(), []graph.NodeID{0, 999}); err == nil {
		t.Error("out-of-range batch source accepted")
	}
}

// TestQueryWidths: a single-source query, a 4-source batch that
// repeats a source and an 11-source batch that runs in several chunks
// at widths 1 and 2 answer the same Results, entry for entry and in the
// same order, at widths 1, 2 and 4, on a cold index (the queries build
// their tail tables) and again warm; the index's Stats agree too. The
// node ranges a query accumulates over depend only on the graph, so
// the order is part of the contract. The graph's columns are short, so
// the widths run once as served, with each source in one item, and
// once with every query cut into range groups.
func TestQueryWidths(t *testing.T) {
	for _, groupColumn := range []int{minGroupColumn, 0} {
		t.Run(fmt.Sprintf("groupColumn=%d", groupColumn), func(t *testing.T) {
			testQueryWidths(t, groupColumn)
		})
	}
}

func testQueryWidths(t *testing.T, groupColumn int) {
	g := testGraph(t, 700, 4500, 21)
	ctx := context.Background()
	batch := []graph.NodeID{5, 640, 2, 5}
	long := []graph.NodeID{9, 120, 33, 9, 400, 77, 650, 3, 120, 512, 250, 18, 699}
	type pass struct {
		results []core.Result
		stats   Stats
	}
	run := func(workers int) []pass {
		ix := mustBuild(t, g, Options{HubFraction: 0.02, Iterations: 90, DSamples: 20, Seed: 14, Workers: workers})
		ix.groupColumn = groupColumn
		var passes []pass
		for range 2 { // cold, then warm
			single, err := ix.SingleSourceResult(ctx, 311)
			if err != nil {
				t.Fatal(err)
			}
			results := []core.Result{single}
			for _, sources := range [][]graph.NodeID{batch, long} {
				rs, err := ix.MultiSourceResults(ctx, sources, workers)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, rs...)
			}
			passes = append(passes, pass{results, ix.Stats()})
		}
		return passes
	}
	want := run(1)
	if want[0].stats.TailBuilds == 0 || want[1].stats.TailBuilds != want[0].stats.TailBuilds {
		t.Fatalf("cold pass built %d tail tables, warm pass %d more: want some, then none",
			want[0].stats.TailBuilds, want[1].stats.TailBuilds-want[0].stats.TailBuilds)
	}
	for _, workers := range []int{2, 4} {
		for i, got := range run(workers) {
			name := [...]string{"cold", "warm"}[i]
			if got.stats != want[i].stats {
				t.Errorf("width %d, %s: stats %+v, width 1 %+v", workers, name, got.stats, want[i].stats)
			}
			for j := range got.results {
				if !reflect.DeepEqual(got.results[j], want[i].results[j]) {
					t.Errorf("width %d, %s: result %d differs from width 1", workers, name, j)
				}
			}
		}
	}
}

// TestBuildWorkersDeterminism: the built index must be byte-identical
// whatever the worker count — Export payloads are deep-equal.
func TestBuildWorkersDeterminism(t *testing.T) {
	g := testGraph(t, 180, 1100, 2)
	base := Options{HubFraction: 0.2, Iterations: 40, DSamples: 30, Seed: 7}
	one, err := Build(g, base)
	if err != nil {
		t.Fatal(err)
	}
	wide := base
	wide.Workers = 8
	many, err := Build(g, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Export(), many.Export()) {
		t.Fatal("Build output differs between 1 and 8 workers")
	}
}

// TestCancellation: a cancelled context must abort both the parallel
// hub build and an in-flight query.
func TestCancellation(t *testing.T) {
	g := testGraph(t, 150, 900, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCtx(ctx, g, Options{HubFraction: 0.5, Seed: 1}); err == nil {
		t.Error("BuildCtx succeeded with cancelled context")
	}
	ix, err := Build(g, Options{HubFraction: 0.01, Iterations: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SingleSourceCtx(ctx, 0); err == nil {
		t.Error("SingleSourceCtx succeeded with cancelled context")
	}
	if _, err := ix.MultiSource(ctx, []graph.NodeID{0, 1}); err == nil {
		t.Error("MultiSource succeeded with cancelled context")
	}
}

// TestScratchEpochWrap: an item's accumulator reads every id as
// untouched however its epoch stamps wrap, also an id that only a
// wider item before the wrap touched: id 7, stamped at epoch 250 by an
// item over 8 ids, must read untouched when the epoch comes back to
// 250 after items over 4 ids have wrapped it.
func TestScratchEpochWrap(t *testing.T) {
	var s rangeScratch
	for range 250 {
		s.reset(8)
	}
	s.mark[7] = s.epoch
	for i := range 400 {
		n := 4
		if i >= 100 {
			n = 8
		}
		s.reset(n)
		for x, m := range s.mark {
			if m == s.epoch {
				t.Fatalf("item %d: id %d of %d reads as touched", i, x, n)
			}
		}
	}
}
