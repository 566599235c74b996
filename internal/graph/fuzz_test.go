package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks that the edge-list parser never panics and
// that every successfully parsed graph is internally consistent and
// round-trips through the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# crashsim: nodes=5 directed=false\n0 1\n")
	f.Add("# comment\n\n3 4\n")
	f.Add("0 0\n")
	f.Add("x y\n")
	f.Add("# crashsim: nodes=-1\n")
	f.Add("# crashsim: nodes=3 directed=true\n0 1\n# crashsim: nodes=5 directed=false\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeListLimit(strings.NewReader(input), 1<<16)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v\ninput: %q", err, input)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("writing parsed graph: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v\noutput: %q", err, buf.String())
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed graph: %d/%d vs %d/%d",
				back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
		}
	})
}
