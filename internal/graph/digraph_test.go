package graph

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDiGraphAddRemove(t *testing.T) {
	d := NewBuilder(3, true).MustFreeze().Thaw()
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := d.AddEdge(1, 2); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Error("directed HasEdge wrong")
	}
	if err := d.RemoveEdge(0, 1); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if d.HasEdge(0, 1) || !d.HasEdge(1, 2) {
		t.Error("edge not removed")
	}
}

func TestDiGraphErrors(t *testing.T) {
	d := NewBuilder(3, true).AddEdge(0, 1).MustFreeze().Thaw()
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"dup add", d.AddEdge(0, 1), "already present"},
		{"self loop", d.AddEdge(2, 2), "self-loop"},
		{"range add", d.AddEdge(0, 3), "out of range"},
		{"missing remove", d.RemoveEdge(1, 2), "not present"},
		{"range remove", d.RemoveEdge(-1, 0), "out of range"},
	}
	for _, tc := range cases {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, tc.err, tc.want)
		}
	}
}

func TestDiGraphUndirected(t *testing.T) {
	d := NewBuilder(3, false).AddEdge(0, 1).MustFreeze().Thaw()
	if !d.HasEdge(1, 0) {
		t.Error("undirected edge not symmetric")
	}
	if len(d.In(0)) != 1 || len(d.In(1)) != 1 {
		t.Errorf("in-lists %v and %v, want one arc each way", d.In(0), d.In(1))
	}
	if err := d.RemoveEdge(1, 0); err != nil {
		t.Fatalf("remove via reverse direction: %v", err)
	}
	if len(d.In(0)) != 0 || len(d.In(1)) != 0 {
		t.Error("undirected removal incomplete")
	}
}

// TestThawIsolation: a thawed copy shares no storage with its graph or
// with another thaw of it.
func TestThawIsolation(t *testing.T) {
	g := NewBuilder(3, true).AddEdge(0, 1).MustFreeze()
	d, c := g.Thaw(), g.Thaw()
	if err := d.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if c.HasEdge(1, 2) || !c.HasEdge(0, 1) || g.HasEdge(1, 2) || !g.HasEdge(0, 1) {
		t.Error("thawed copy shares storage")
	}
}

// sameInLists reports whether d's in-lists are g's CSR in-rows element
// by element.
func sameInLists(d *DiGraph, g *Graph) bool {
	if d.NumNodes() != g.NumNodes() {
		return false
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if !slices.Equal(d.In(v), g.In(v)) {
			return false
		}
	}
	return true
}

// TestDiGraphUpdatesMatchThawQuick property-checks that a random
// mutation sequence applied to a thawed DiGraph leaves exactly the
// in-lists of the thaw of the surviving edge set: ascending, so an
// index updated in place samples what a rebuilt one would.
func TestDiGraphUpdatesMatchThawQuick(t *testing.T) {
	f := func(seed uint64, directed bool) bool {
		r := rand.New(rand.NewPCG(seed, 42))
		n := 2 + r.IntN(20)
		d := NewBuilder(n, directed).MustFreeze().Thaw()
		live := map[Edge]struct{}{}
		canon := func(e Edge) Edge {
			if !directed && e.X > e.Y {
				e.X, e.Y = e.Y, e.X
			}
			return e
		}
		for i := 0; i < 100; i++ {
			x, y := NodeID(r.IntN(n)), NodeID(r.IntN(n))
			if x == y {
				continue
			}
			e := canon(Edge{X: x, Y: y})
			if _, ok := live[e]; ok {
				if d.RemoveEdge(x, y) != nil {
					return false
				}
				delete(live, e)
			} else {
				if d.AddEdge(x, y) != nil {
					return false
				}
				live[e] = struct{}{}
			}
		}
		b := NewBuilder(n, directed)
		for e := range live {
			b.AddEdge(e.X, e.Y)
		}
		return sameInLists(d, b.MustFreeze())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestThawMatchesAddEdgeLoop pins Thaw to the graph it copies: the same
// in-rows element by element (READS samples In() by position). It then mutates one thawed copy and, through Merge,
// the graph, and checks they stay equal, so no thawed row can spill
// into its neighbor.
func TestThawMatchesAddEdgeLoop(t *testing.T) {
	for _, directed := range []bool{true, false} {
		r := rand.New(rand.NewPCG(7, 9))
		b := NewBuilder(40, directed)
		seen := map[Edge]bool{}
		for len(seen) < 150 {
			e := Edge{X: NodeID(r.IntN(40)), Y: NodeID(r.IntN(40))}
			if !directed && e.X > e.Y {
				e.X, e.Y = e.Y, e.X
			}
			if e.X == e.Y || seen[e] {
				continue
			}
			seen[e] = true
			b.AddEdge(e.X, e.Y)
		}
		g := b.MustFreeze()
		thawed := g.Thaw()
		if !sameInLists(thawed, g) {
			t.Fatalf("directed=%v: thawed in-lists differ from the CSR rows", directed)
		}
		for i := 0; i < 200; i++ {
			e := Edge{X: NodeID(r.IntN(40)), Y: NodeID(r.IntN(40))}
			if e.X == e.Y {
				continue
			}
			if thawed.HasEdge(e.X, e.Y) {
				if err := thawed.RemoveEdge(e.X, e.Y); err != nil {
					t.Fatal(err)
				}
				g = g.Merge(nil, []Edge{e}, 0)
			} else {
				if err := thawed.AddEdge(e.X, e.Y); err != nil {
					t.Fatal(err)
				}
				g = g.Merge([]Edge{e}, nil, 0)
			}
		}
		if !sameInLists(thawed, g) {
			t.Fatalf("directed=%v: thawed graph diverged from the merged CSR under mutation", directed)
		}
	}
}
