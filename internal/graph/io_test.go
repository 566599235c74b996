package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := PaperExample()
		if !directed {
			var err error
			g, err = NewBuilder(4, false).AddEdge(0, 1).AddEdge(1, 2).AddEdge(3, 0).Freeze()
			if err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("WriteEdgeList: %v", err)
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("ReadEdgeList: %v", err)
		}
		if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() || got.Directed() != g.Directed() {
			t.Fatalf("round trip mismatch: n=%d/%d m=%d/%d dir=%t/%t",
				got.NumNodes(), g.NumNodes(), got.NumEdges(), g.NumEdges(), got.Directed(), g.Directed())
		}
		for _, e := range g.Edges() {
			if !got.HasEdge(e.X, e.Y) {
				t.Errorf("edge %v lost in round trip", e)
			}
		}
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	in := "# a comment\n0 1\n1 2\n\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 || !g.Directed() {
		t.Errorf("got n=%d m=%d directed=%t", g.NumNodes(), g.NumEdges(), g.Directed())
	}
}

func TestReadEdgeListHeaderIsolatedNodes(t *testing.T) {
	in := "# crashsim: nodes=10 directed=false\n0 1\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 10 || g.NumEdges() != 1 || g.Directed() {
		t.Errorf("got n=%d m=%d directed=%t", g.NumNodes(), g.NumEdges(), g.Directed())
	}
}

func TestReadEdgeListNodeLimit(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("999999999 0\n")); err == nil {
		t.Error("absurd node id accepted by default limit")
	}
	if _, err := ReadEdgeListLimit(strings.NewReader("100 0\n"), 50); err == nil {
		t.Error("explicit limit not enforced")
	}
	if _, err := ReadEdgeListLimit(strings.NewReader("100 0\n"), 200); err != nil {
		t.Errorf("within-limit input rejected: %v", err)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"too many fields", "0 1 2\n", "want 2 fields"},
		{"bad id", "0 x\n", "bad node id"},
		{"negative id", "0 -1\n", "node id"},
		{"bad header nodes", "# crashsim: nodes=x\n", "bad node count"},
		{"bad header directed", "# crashsim: directed=maybe\n", "bad directed flag"},
		{"unknown header key", "# crashsim: weight=3\n", "unknown header field"},
		{"header missing equals", "# crashsim: nodes\n", "bad header field"},
		{"edge beyond header nodes", "# crashsim: nodes=2 directed=true\n0 5\n", "out of range"},
		{"self-loop", "3 3\n", "self-loop"},
		{"duplicate", "0 1\n0 1\n", "duplicate"},
		{"repeated header", "# crashsim: nodes=3 directed=true\n0 1\n# crashsim: nodes=5 directed=false\n", "line 3: repeated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}
