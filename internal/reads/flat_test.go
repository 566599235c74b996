package reads

import (
	"reflect"
	"slices"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func flatTestGraph(t testing.TB, directed bool) *graph.Graph {
	t.Helper()
	edges, err := gen.ErdosRenyi(44, 140, directed, 9)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(44, directed, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFlatBitIdentical is the flat-path oracle: a borrowed index
// (Export/ImportFlat over the frozen graph) must answer every source
// bit-for-bit like the index Build made, including the RQ fresh-walk
// refinement that samples the graph at query time, and export the same
// arrays.
func TestFlatBitIdentical(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := flatTestGraph(t, directed)
		built, err := Build(g, Options{R: 16, MaxLen: 6, RQ: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		p := built.Export()
		borrowed, err := ImportFlat(g, p, true)
		if err != nil {
			t.Fatal(err)
		}
		if borrowed.NumWalks() != built.NumWalks() || borrowed.Positions() != built.Positions() {
			t.Fatalf("size proxies differ: %d/%d vs %d/%d",
				borrowed.NumWalks(), borrowed.Positions(), built.NumWalks(), built.Positions())
		}
		if !reflect.DeepEqual(borrowed.Export(), p) {
			t.Fatalf("directed=%v: borrowed re-export differs from the original payload", directed)
		}
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			want, err := built.SingleSource(u)
			if err != nil {
				t.Fatal(err)
			}
			got, err := borrowed.SingleSource(u)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("directed=%v: borrowed scores differ at source %d", directed, u)
			}
		}
	}
}

// TestFlatMaterializeOnMutate checks the copy-on-write story: a
// borrowed index hit with an edge update promotes itself to the heap
// form and from then on tracks the built index exactly.
func TestFlatMaterializeOnMutate(t *testing.T) {
	g := flatTestGraph(t, true)
	built, err := Build(g, Options{R: 12, MaxLen: 6, RQ: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	borrowed, err := ImportFlat(g, built.Export(), true)
	if err != nil {
		t.Fatal(err)
	}
	e := graph.Edge{X: 1, Y: 40}
	if built.Graph().HasEdge(e.X, e.Y) {
		e = graph.Edge{X: 2, Y: 41}
	}
	if err := built.ApplyEdge(e, true); err != nil {
		t.Fatal(err)
	}
	if err := borrowed.ApplyEdge(e, true); err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		want, err := built.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := borrowed.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("post-mutation scores differ at source %d", u)
		}
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !slices.Equal(borrowed.Graph().In(v), built.Graph().In(v)) {
			t.Fatal("materialized graph out of sync")
		}
	}
}

func TestImportFlatRejectsCorruptShape(t *testing.T) {
	g := flatTestGraph(t, true)
	built, err := Build(g, Options{R: 8, MaxLen: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := built.Export()
	mutate := map[string]func(f *Flat){
		"truncated walk offsets": func(f *Flat) { f.WalkOff = f.WalkOff[:len(f.WalkOff)-1] },
		"short run offsets":      func(f *Flat) { f.RunOff = f.RunOff[:len(f.RunOff)-1] },
		"short list offsets":     func(f *Flat) { f.ListOff = f.ListOff[:len(f.ListOff)-1] },
		"short origins":          func(f *Flat) { f.InvOrigins = f.InvOrigins[:len(f.InvOrigins)-1] },
	}
	for name, fn := range mutate {
		f := base
		fn(&f)
		if _, err := ImportFlat(g, f, false); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A walk not starting at its origin passes shape checks but fails
	// validate mode.
	f := base
	f.Nodes = append([]graph.NodeID(nil), f.Nodes...)
	f.Nodes[f.WalkOff[1]] = 99
	if _, err := ImportFlat(g, f, true); err == nil {
		t.Error("corrupt walk accepted under validate")
	}
}
