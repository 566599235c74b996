package graph

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks that the edge-list parser never panics, that
// it returns what oracleReadEdgeList returns (the same CSR arrays and
// version, or the same error text), and that every successfully parsed
// graph is internally consistent and round-trips through the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# crashsim: nodes=5 directed=false\n0 1\n")
	f.Add("# comment\n\n3 4\n")
	f.Add("0 0\n")
	f.Add("x y\n")
	f.Add("# crashsim: nodes=-1\n")
	f.Add("# crashsim: nodes=3 directed=true\n0 1\n# crashsim: nodes=5 directed=false\n")
	for _, line := range fastPathEdges {
		f.Add(line + "\n")
		f.Add("0 1\n" + line + "\n2 3\n")
	}
	f.Add("# crashsim: nodes=4 directed=false\n0 1\n1 0\n")
	f.Add("0 1\n1 2\n0 1\n5 5\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeListLimit(strings.NewReader(input), 1<<16)
		want, wantErr := oracleReadEdgeList(strings.NewReader(input), 1<<16)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("err = %v, oracle %v\ninput: %q", err, wantErr, input)
		}
		if err != nil {
			return
		}
		if err := sameGraph(g, want); err != nil {
			t.Fatalf("graph differs from the oracle's: %v\ninput: %q", err, input)
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

// fastPathEdges are edge-list lines at the boundary between the
// reader's fast path and its general path.
var fastPathEdges = []string{
	"007 0008",
	"+5 1",
	"5 +1",
	"-0 1",
	"0\t1",
	" \t0 \t 1\t ",
	"0\v1",
	"0 1\f",
	"0\u00a01",
	"0 1\u0085",
	"0 1\r",
	"0 1 \r",
	"0 1\r\r",
	"0\r1",
	"0 1\x00",
	"2147483647 0",
	"2147483648 0",
	"0 99999999999999999999",
	"0 1 2",
	"0",
	"0 ",
	"3 3",
	"1 0",
	"٣ 1",
}
