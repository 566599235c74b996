package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
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

// oracleReadEdgeList is the reference FuzzReadEdgeList holds the reader
// to: every line through strings.Fields and strconv, as the reader
// parsed before its byte fast path, and a build that checks duplicates
// with a map of every edge before the counting CSR build, as Freeze
// did before its repeat scan, with the version hashed by hash/fnv.
func oracleReadEdgeList(r io.Reader, maxNodes int) (*Graph, error) {
	directed, haveHeader := true, false
	n, maxID := 0, NodeID(-1)
	var edges []Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# crashsim:"); ok {
				if haveHeader {
					return nil, fmt.Errorf("graph: line %d: repeated '# crashsim:' header", line)
				}
				var err error
				if n, directed, err = parseHeader(rest); err != nil {
					return nil, fmt.Errorf("graph: line %d: %w", line, err)
				}
				haveHeader = true
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", line, len(fields))
		}
		x, err := parseNode(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		y, err := parseNode(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		edges = append(edges, Edge{X: x, Y: y})
		maxID = max(maxID, x, y)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if !haveHeader {
		n = int(maxID) + 1
	}
	if n > maxNodes {
		return nil, fmt.Errorf("graph: input names %d nodes, above the limit of %d", n, maxNodes)
	}
	seen := make(map[Edge]struct{}, len(edges))
	for _, e := range edges {
		if err := CheckEdge(n, e.X, e.Y); err != nil {
			return nil, err
		}
		key := e
		if !directed && key.X > key.Y {
			key.X, key.Y = key.Y, key.X
		}
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", e.X, e.Y)
		}
		seen[key] = struct{}{}
	}
	g := fromEdges(n, directed, edges)
	g.version = fnvVersion(g)
	return g, nil
}

// sameGraph reports how got differs from want: node count, direction,
// version and both CSR sides.
func sameGraph(got, want *Graph) error {
	if got.NumNodes() != want.NumNodes() || got.Directed() != want.Directed() || got.Version() != want.Version() {
		return fmt.Errorf("n/directed/version %d/%t/%#x, want %d/%t/%#x",
			got.NumNodes(), got.Directed(), got.Version(), want.NumNodes(), want.Directed(), want.Version())
	}
	gotOff, gotAdj := got.InCSR()
	wantOff, wantAdj := want.InCSR()
	gotOutOff, gotOutAdj := got.OutCSR()
	wantOutOff, wantOutAdj := want.OutCSR()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) ||
		!slices.Equal(gotOutOff, wantOutOff) || !slices.Equal(gotOutAdj, wantOutAdj) {
		return fmt.Errorf("CSR arrays differ")
	}
	return nil
}
