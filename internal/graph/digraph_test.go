package graph

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestDiGraphAddRemove(t *testing.T) {
	d := NewDiGraph(3, true)
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := d.AddEdge(1, 2); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if d.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", d.NumEdges())
	}
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Error("directed HasEdge wrong")
	}
	if err := d.RemoveEdge(0, 1); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if d.HasEdge(0, 1) || d.NumEdges() != 1 {
		t.Error("edge not removed")
	}
}

func TestDiGraphErrors(t *testing.T) {
	d := NewDiGraph(3, true)
	mustAdd(t, d, 0, 1)
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
	d := NewDiGraph(3, false)
	mustAdd(t, d, 0, 1)
	if !d.HasEdge(1, 0) {
		t.Error("undirected edge not symmetric")
	}
	if d.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", d.NumEdges())
	}
	if err := d.RemoveEdge(1, 0); err != nil {
		t.Fatalf("remove via reverse direction: %v", err)
	}
	if d.NumEdges() != 0 || d.HasEdge(0, 1) {
		t.Error("undirected removal incomplete")
	}
}

func TestDiGraphCloneIsolation(t *testing.T) {
	d := NewDiGraph(3, true)
	mustAdd(t, d, 0, 1)
	c := d.Clone()
	mustAdd(t, d, 1, 2)
	if c.HasEdge(1, 2) {
		t.Error("clone shares storage with original")
	}
	if c.NumEdges() != 1 || d.NumEdges() != 2 {
		t.Errorf("edge counts: clone=%d orig=%d", c.NumEdges(), d.NumEdges())
	}
}

// TestDiGraphFreezeQuick property-checks that a random mutation sequence
// applied to a DiGraph freezes to a Graph with exactly the surviving
// edges, for both directed and undirected graphs.
func TestDiGraphFreezeQuick(t *testing.T) {
	f := func(seed uint64, directed bool) bool {
		r := rand.New(rand.NewPCG(seed, 42))
		n := 2 + r.IntN(20)
		d := NewDiGraph(n, directed)
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
				if d.RemoveEdge(e.X, e.Y) != nil {
					return false
				}
				delete(live, e)
			} else {
				if d.AddEdge(e.X, e.Y) != nil {
					return false
				}
				live[e] = struct{}{}
			}
		}
		g := d.Freeze()
		if g.Validate() != nil || g.NumEdges() != len(live) {
			return false
		}
		for e := range live {
			if !g.HasEdge(e.X, e.Y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mustAdd(t *testing.T, d *DiGraph, x, y NodeID) {
	t.Helper()
	if err := d.AddEdge(x, y); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", x, y, err)
	}
}

// TestThawMatchesAddEdgeLoop pins Thaw to the AddEdge loop it replaced:
// same In/Out lists element by element (READS samples In() by
// position), same arc count and generation — and the two stay equal
// under the same later mutations, so no thawed row can spill into its
// neighbor.
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
		looped := NewDiGraph(g.NumNodes(), g.Directed())
		for _, e := range g.Edges() {
			if err := looped.AddEdge(e.X, e.Y); err != nil {
				t.Fatal(err)
			}
		}
		thawed := g.Thaw()
		if !reflect.DeepEqual(thawed, looped) {
			t.Fatalf("directed=%v: thawed graph differs from the AddEdge loop's", directed)
		}
		for i := 0; i < 200; i++ {
			x, y := NodeID(r.IntN(40)), NodeID(r.IntN(40))
			if x == y {
				continue
			}
			op := (*DiGraph).AddEdge
			if looped.HasEdge(x, y) {
				op = (*DiGraph).RemoveEdge
			}
			if err := op(looped, x, y); err != nil {
				t.Fatal(err)
			}
			if err := op(thawed, x, y); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(thawed, looped) {
			t.Fatalf("directed=%v: thawed graph diverged from the AddEdge loop's under mutation", directed)
		}
	}
}
