package reads

import (
	"math"
	"reflect"
	"testing"

	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{C: 2}, {R: -1}, {MaxLen: -1}, {C: math.NaN()},
		{R: maxR + 1}, {MaxLen: maxMaxLen + 1}, {RQ: maxRQ + 1}} {
		if err := o.Validate(); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	if err := (Options{R: maxR, MaxLen: maxMaxLen, RQ: maxRQ}).Validate(); err != nil {
		t.Errorf("options at their upper bounds rejected: %v", err)
	}
}

func TestBuildAndQuery(t *testing.T) {
	g := graph.PaperExample()
	ix, err := Build(g, Options{R: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumWalks() != 50*8 {
		t.Errorf("NumWalks = %d, want 400", ix.NumWalks())
	}
	s, err := ix.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Errorf("s(u,u) = %g, want 1", s[0])
	}
	for v, score := range s {
		if score < 0 || score > 1 {
			t.Errorf("score of %d = %g outside [0,1]", v, score)
		}
	}
	if _, err := ix.SingleSource(99); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := Build(g, Options{C: 3}); err == nil {
		t.Error("bad options accepted")
	}
}

func TestIndexIsIsolatedFromCaller(t *testing.T) {
	g := graph.PaperExample()
	ix, err := Build(g, Options{R: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Updating the index's copy must not touch the caller's graph.
	e := graph.Edge{X: graph.PaperNode("B"), Y: graph.PaperNode("A")}
	if err := ix.ApplyEdge(e, false); err != nil {
		t.Fatal(err)
	}
	if ix.Graph().HasEdge(e.X, e.Y) || !g.HasEdge(e.X, e.Y) {
		t.Error("index shares graph storage with caller")
	}
}

// TestAccuracyAgainstPowerMethod: the stored-walk meeting estimator
// approximates SimRank (it has no formal guarantee — the paper's Fig 5
// shows READS with the worst ME — but it must be in the ballpark).
func TestAccuracyAgainstPowerMethod(t *testing.T) {
	g := graph.PaperExample()
	gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{C: 0.6, R: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		got := s[graph.NodeID(v)]
		want := gt.Sim(0, graph.NodeID(v))
		if d := math.Abs(got - want); d > 0.12 {
			t.Errorf("s(0,%d) = %.4f, power method %.4f (diff %.4f)", v, got, want, d)
		}
	}
}

// TestApplyEdgeMatchesRebuild is the key dynamic-index property: after
// any sequence of updates, the incrementally maintained index must give
// exactly the same scores as an index built from scratch on the final
// graph (walk streams are keyed by (sample, origin), so regenerated
// walks coincide).
func TestApplyEdgeMatchesRebuild(t *testing.T) {
	edges, err := gen.ErdosRenyi(40, 120, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	gg, err := gen.BuildStatic(40, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{R: 40, Seed: 7}
	ix, err := Build(gg, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Apply a mixed update batch.
	updates := []struct {
		e   graph.Edge
		add bool
	}{
		{edges[0], false},
		{edges[1], false},
		{graph.Edge{X: 0, Y: 39}, true},
		{graph.Edge{X: 39, Y: 1}, true},
	}
	var add, del []graph.Edge
	for _, up := range updates {
		if up.add && gg.HasEdge(up.e.X, up.e.Y) {
			continue
		}
		if err := ix.ApplyEdge(up.e, up.add); err != nil {
			t.Fatalf("ApplyEdge(%v, %t): %v", up.e, up.add, err)
		}
		if up.add {
			add = append(add, up.e)
		} else {
			del = append(del, up.e)
		}
	}

	rebuilt, err := Build(gg.Merge(add, del, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); u < 40; u += 5 {
		a, err := ix.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rebuilt.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("source %d: result sizes differ (%d vs %d)", u, len(a), len(b))
		}
		for v := range a {
			if a[v] != b[v] {
				t.Errorf("source %d: incremental %g != rebuild %g at node %d", u, a[v], b[v], v)
			}
		}
	}
}

func TestRQRefinement(t *testing.T) {
	g := graph.PaperExample()
	gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// With refinement enabled, accuracy must remain in the same
	// ballpark (the fresh walks add valid samples).
	ix, err := Build(g, Options{C: 0.6, R: 1500, RQ: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if diff := math.Abs(s[graph.NodeID(v)] - gt.Sim(0, graph.NodeID(v))); diff > 0.12 {
			t.Errorf("refined s(0,%d) off by %.4f", v, diff)
		}
	}
	// Determinism with RQ.
	s2, err := ix.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range s {
		if s[v] != s2[v] {
			t.Fatalf("refined query nondeterministic at %d", v)
		}
	}
	if _, err := Build(g, Options{RQ: -1}); err == nil {
		t.Error("negative RQ accepted")
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	ix, err := Build(graph.PaperExample(), Options{R: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.ApplyDelta(nil, []graph.Edge{{X: 0, Y: 7}}); err == nil {
		t.Error("deleting a missing edge accepted")
	}
	if err := ix.ApplyDelta([]graph.Edge{{X: 1, Y: 0}}, nil); err == nil {
		t.Error("adding an existing edge accepted")
	}
}

func TestUndirectedUpdates(t *testing.T) {
	g := graph.NewBuilder(4, false).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).MustFreeze()
	opt := Options{R: 30, Seed: 2}
	ix, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := graph.Edge{X: 3, Y: 0}
	if err := ix.ApplyEdge(e, true); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := Build(g.Merge([]graph.Edge{e}, nil, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ix.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rebuilt.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range b {
		if a[v] != b[v] {
			t.Errorf("undirected incremental %g != rebuild %g at node %d", a[v], b[v], v)
		}
	}
}

// TestBuildWorkersDeterminism: the parallel build must produce an index
// byte-identical to the serial one — same stored walks, same inverted
// occurrence lists in the same order — because every walk draws from a
// dedicated (sample, origin) stream and indexing runs serially in node
// order. Run under -race this also exercises the sampling fan-out.
func TestBuildWorkersDeterminism(t *testing.T) {
	edges, err := gen.ErdosRenyi(120, 480, true, 61)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(120, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{R: 24, MaxLen: 8, RQ: 4, Seed: 63}
	serial, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		po := opt
		po.Workers = w
		parallel, err := Build(g, po)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel.walks, serial.walks) {
			t.Fatalf("workers=%d: stored walks differ from serial build", w)
		}
		if !reflect.DeepEqual(parallel.inv, serial.inv) {
			t.Fatalf("workers=%d: inverted index differs from serial build", w)
		}
		want, err := serial.SingleSource(0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parallel.SingleSource(0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: single-source scores differ", w)
		}
	}
}
