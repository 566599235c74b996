package graph

import (
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderDirected(t *testing.T) {
	g, err := NewBuilder(4, true).
		AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 0).AddEdge(0, 2).
		Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if got := g.NumNodes(); got != 4 {
		t.Errorf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if !g.Directed() {
		t.Error("Directed = false, want true")
	}
	if got := g.In(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("In(2) = %v, want [0 1]", got)
	}
	if got := g.Out(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Out(0) = %v, want [1 2]", got)
	}
	if g.InDegree(3) != 0 || g.OutDegree(3) != 0 {
		t.Errorf("node 3 should be isolated")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Errorf("HasEdge wrong for directed arcs")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderUndirected(t *testing.T) {
	g, err := NewBuilder(3, false).AddEdge(0, 1).AddEdge(2, 1).Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if got := g.NumEdges(); got != 2 {
		t.Errorf("NumEdges = %d, want 2", got)
	}
	for _, pair := range [][2]NodeID{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !g.HasEdge(pair[0], pair[1]) {
			t.Errorf("HasEdge(%d,%d) = false, want true", pair[0], pair[1])
		}
	}
	if got := g.InDegree(1); got != 2 {
		t.Errorf("InDegree(1) = %d, want 2", got)
	}
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges() has %d entries, want 2", len(edges))
	}
	for _, e := range edges {
		if e.X > e.Y {
			t.Errorf("undirected Edges() entry %v not canonicalized", e)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func() (*Graph, error)
		want string
	}{
		{"self-loop", func() (*Graph, error) { return NewBuilder(2, true).AddEdge(1, 1).Freeze() }, "self-loop"},
		{"out-of-range", func() (*Graph, error) { return NewBuilder(2, true).AddEdge(0, 2).Freeze() }, "out of range"},
		{"negative", func() (*Graph, error) { return NewBuilder(2, true).AddEdge(-1, 0).Freeze() }, "out of range"},
		{"duplicate", func() (*Graph, error) { return NewBuilder(2, true).AddEdge(0, 1).AddEdge(0, 1).Freeze() }, "duplicate"},
		{"dup-undirected", func() (*Graph, error) { return NewBuilder(2, false).AddEdge(0, 1).AddEdge(1, 0).Freeze() }, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.f()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0, true).Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestCSRInvariantsQuick property-checks that Freeze of a random directed
// edge set always yields a valid CSR whose adjacency matches the input.
func TestCSRInvariantsQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		n := 2 + r.IntN(30)
		seen := map[Edge]struct{}{}
		b := NewBuilder(n, true)
		for i := 0; i < r.IntN(3*n); i++ {
			x, y := NodeID(r.IntN(n)), NodeID(r.IntN(n))
			if x == y {
				continue
			}
			e := Edge{X: x, Y: y}
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			b.AddEdge(x, y)
		}
		g, err := b.Freeze()
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		if g.NumEdges() != len(seen) {
			return false
		}
		for e := range seen {
			if !g.HasEdge(e.X, e.Y) {
				return false
			}
		}
		got := g.Edges()
		if len(got) != len(seen) {
			return false
		}
		for _, e := range got {
			if _, ok := seen[e]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPaperExample(t *testing.T) {
	g := PaperExample()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantIn := map[string][]string{
		"A": {"B", "C"},
		"B": {"A", "E"},
		"C": {"A", "B", "D"},
		"D": {"B", "C"},
		"E": {"B", "H"},
		"F": {"G"},
		"G": {"F"},
		"H": {"F", "G"},
	}
	for label, want := range wantIn {
		in := g.In(PaperNode(label))
		got := make([]string, len(in))
		for i, v := range in {
			got[i] = PaperLabel(v)
		}
		sort.Strings(got)
		if strings.Join(got, "") != strings.Join(want, "") {
			t.Errorf("I(%s) = %v, want %v", label, got, want)
		}
	}
	// Walk (C, D, B, A) from Example 2 must be feasible.
	path := []string{"C", "D", "B", "A"}
	for i := 0; i+1 < len(path); i++ {
		cur, next := PaperNode(path[i]), PaperNode(path[i+1])
		if !g.HasEdge(next, cur) {
			t.Errorf("walk step %s -> %s infeasible: %s not an in-neighbor", path[i], path[i+1], path[i+1])
		}
	}
}

func TestPaperNodeLabelRoundTrip(t *testing.T) {
	for v := NodeID(0); v < 8; v++ {
		if got := PaperNode(PaperLabel(v)); got != v {
			t.Errorf("round trip of %d gave %d", v, got)
		}
	}
	for _, bad := range []string{"", "I", "a", "AB"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PaperNode(%q) did not panic", bad)
				}
			}()
			PaperNode(bad)
		}()
	}
}
