package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The edge-list format mirrors the SNAP datasets the paper evaluates on:
// one whitespace-separated "x y" pair per line, '#' comments, blank lines
// ignored. An optional header directive
//
//	# crashsim: nodes=N directed=true|false
//
// fixes the node count and direction; without it, nodes is max id + 1 and
// the graph is assumed directed. A second header is an error.

// DefaultMaxNodes bounds the node count ReadEdgeList accepts, guarding
// against malformed input that names an absurd node id and would make
// the loader allocate gigabytes of adjacency offsets. Use
// ReadEdgeListLimit to raise the bound for genuinely huge graphs.
const DefaultMaxNodes = 1 << 27

// ReadEdgeList parses an edge list from r and builds a Graph.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListLimit(r, DefaultMaxNodes)
}

// ReadEdgeListLimit is ReadEdgeList with an explicit node-count bound.
func ReadEdgeListLimit(r io.Reader, maxNodes int) (*Graph, error) {
	b, err := parseEdgeList(r)
	if err != nil {
		return nil, err
	}
	if b.n > maxNodes {
		return nil, fmt.Errorf("graph: input names %d nodes, above the limit of %d", b.n, maxNodes)
	}
	return b.Freeze()
}

// WriteEdgeList writes g in the edge-list format with a header directive,
// so a round-trip through ReadEdgeList reconstructs the same graph.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# crashsim: nodes=%d directed=%t\n", g.NumNodes(), g.Directed())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d\n", e.X, e.Y)
	}
	return bw.Flush()
}

// parseEdgeList reads r into a Builder holding its edges, its node
// count and its direction.
func parseEdgeList(r io.Reader) (*Builder, error) {
	b := &Builder{directed: true}
	haveHeader := false
	maxID := NodeID(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		if x, rest, ok := CutID(sc.Bytes()); ok {
			if y, rest, ok := CutID(rest); ok && len(rest) == 0 {
				b.add(Edge{X: x, Y: y})
				maxID = max(maxID, x, y)
				continue
			}
		}
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
				if b.n, b.directed, err = parseHeader(rest); err != nil {
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
		b.add(Edge{X: x, Y: y})
		maxID = max(maxID, x, y)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if !haveHeader {
		b.n = int(maxID) + 1
	}
	return b, nil
}

// CutID is the edge-list readers' fast path for one numeric field. It
// skips the blanks (spaces, tabs and carriage returns) at the start of
// b and parses the run of ASCII digits that follows, which must be at
// most math.MaxInt32 and end b or be followed by a blank. It returns
// the id and the rest of b after the blanks that follow the digits, so
// rest is empty after a line's last field. ok is false for anything
// else (a sign, an overflow, any other byte), and the reader then
// parses the line its general way, which accepts or refuses it exactly
// as without the fast path: that way splits fields at Unicode white
// space, of which these blanks are a part.
func CutID(b []byte) (id NodeID, rest []byte, ok bool) {
	i := skipBlanks(b, 0)
	start := i
	v := uint64(0)
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		if v = v*10 + uint64(d); v > math.MaxInt32 {
			return 0, nil, false
		}
	}
	if i == start || i < len(b) && !isBlank(b[i]) {
		return 0, nil, false
	}
	return NodeID(v), b[skipBlanks(b, i):], true
}

// skipBlanks returns the index of the first byte of b at or after i
// that is not a blank.
func skipBlanks(b []byte, i int) int {
	for i < len(b) && isBlank(b[i]) {
		i++
	}
	return i
}

func isBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

func parseHeader(rest string) (n int, directed bool, err error) {
	directed = true
	for _, f := range strings.Fields(rest) {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return 0, false, fmt.Errorf("bad header field %q", f)
		}
		switch key {
		case "nodes":
			n, err = strconv.Atoi(val)
			if err != nil || n < 0 {
				return 0, false, fmt.Errorf("bad node count %q", val)
			}
		case "directed":
			directed, err = strconv.ParseBool(val)
			if err != nil {
				return 0, false, fmt.Errorf("bad directed flag %q", val)
			}
		default:
			return 0, false, fmt.Errorf("unknown header field %q", key)
		}
	}
	return n, directed, nil
}

func parseNode(s string) (NodeID, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative node id %d", v)
	}
	return NodeID(v), nil
}
