package temporal

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"crashsim/internal/graph"
)

// The temporal edge-list format models timestamped interaction logs like
// AS-733: a header directive fixes the node count, direction and snapshot
// count, then each line is "t op x y" where op is '+' or '-' and t is the
// snapshot index the change takes effect at (t >= 1). Snapshot 0 edges
// are written with "0 + x y". Lines must be sorted by t, and the header
// must come before them, once.
//
//	# crashsim-temporal: nodes=N directed=BOOL snapshots=T
//	0 + 1 2
//	1 - 1 2
//	1 + 2 3

// maxSnapshots bounds the snapshot count a header may declare,
// guarding the delta-array allocation against malformed input: the
// header alone allocates a Delta (48 bytes) per transition, so the
// bound caps that at 48 MiB. The paper's longest history, AS-733, has
// 733 snapshots.
const maxSnapshots = 1 << 20

// Read parses a temporal graph from r. It applies the same node-count
// guard as graph.ReadEdgeList; use ReadLimit to raise it.
func Read(r io.Reader) (*Graph, error) {
	return ReadLimit(r, graph.DefaultMaxNodes)
}

// ReadLimit is Read with an explicit node-count bound.
func ReadLimit(r io.Reader, maxNodes int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var (
		n, T       int
		directed   bool
		haveHeader bool
		initial    []graph.Edge
		deltas     []Delta
		prevT      = 0
		line       = 0
	)
	for sc.Scan() {
		line++
		if haveHeader {
			if t, add, e, ok := parseChange(sc.Bytes()); ok && prevT <= t && t < T && (add || t > 0) {
				prevT = t
				switch {
				case t == 0:
					initial = append(initial, e)
				case add:
					deltas[t-1].Add = append(deltas[t-1].Add, e)
				default:
					deltas[t-1].Del = append(deltas[t-1].Del, e)
				}
				continue
			}
		}
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# crashsim-temporal:"); ok {
				if haveHeader {
					return nil, fmt.Errorf("temporal: line %d: repeated '# crashsim-temporal:' header", line)
				}
				var err error
				n, directed, T, err = parseTemporalHeader(rest)
				if err != nil {
					return nil, fmt.Errorf("temporal: line %d: %w", line, err)
				}
				if n > maxNodes {
					return nil, fmt.Errorf("temporal: header names %d nodes, above the limit of %d", n, maxNodes)
				}
				if T > maxSnapshots {
					return nil, fmt.Errorf("temporal: header names %d snapshots, above the limit of %d", T, maxSnapshots)
				}
				haveHeader = true
				deltas = make([]Delta, T-1)
			}
			continue
		}
		if !haveHeader {
			return nil, fmt.Errorf("temporal: line %d: missing '# crashsim-temporal:' header", line)
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return nil, fmt.Errorf("temporal: line %d: want 4 fields, got %d", line, len(fields))
		}
		t, err := strconv.Atoi(fields[0])
		if err != nil || t < 0 || t >= T {
			return nil, fmt.Errorf("temporal: line %d: bad snapshot index %q", line, fields[0])
		}
		if t < prevT {
			return nil, fmt.Errorf("temporal: line %d: snapshot indices not sorted", line)
		}
		prevT = t
		x, err := strconv.ParseInt(fields[2], 10, 32)
		if err != nil || x < 0 {
			return nil, fmt.Errorf("temporal: line %d: bad node id %q", line, fields[2])
		}
		y, err := strconv.ParseInt(fields[3], 10, 32)
		if err != nil || y < 0 {
			return nil, fmt.Errorf("temporal: line %d: bad node id %q", line, fields[3])
		}
		e := graph.Edge{X: graph.NodeID(x), Y: graph.NodeID(y)}
		switch fields[1] {
		case "+":
			if t == 0 {
				initial = append(initial, e)
			} else {
				deltas[t-1].Add = append(deltas[t-1].Add, e)
			}
		case "-":
			if t == 0 {
				return nil, fmt.Errorf("temporal: line %d: deletion in initial snapshot", line)
			}
			deltas[t-1].Del = append(deltas[t-1].Del, e)
		default:
			return nil, fmt.Errorf("temporal: line %d: bad op %q", line, fields[1])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("temporal: reading: %w", err)
	}
	if !haveHeader {
		return nil, fmt.Errorf("temporal: empty input (missing header)")
	}
	return New(n, directed, initial, deltas)
}

// parseChange is ReadLimit's fast path: a line "t op x y" of unsigned
// ASCII decimals and a '+' or '-' op, separated by blanks (see
// graph.CutID; the op by a space or tab). ok is false for any other
// line, which the general path then parses or refuses; the caller
// still checks t against the header and the previous line.
func parseChange(b []byte) (t int, add bool, e graph.Edge, ok bool) {
	t32, rest, ok := graph.CutID(b)
	if !ok || len(rest) < 2 || rest[0] != '+' && rest[0] != '-' || rest[1] != ' ' && rest[1] != '\t' {
		return 0, false, e, false
	}
	add = rest[0] == '+'
	if e.X, rest, ok = graph.CutID(rest[2:]); !ok {
		return 0, false, e, false
	}
	if e.Y, rest, ok = graph.CutID(rest); !ok || len(rest) != 0 {
		return 0, false, e, false
	}
	return int(t32), add, e, true
}

// Write emits tg in the temporal edge-list format.
func Write(w io.Writer, tg *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# crashsim-temporal: nodes=%d directed=%t snapshots=%d\n",
		tg.NumNodes(), tg.Directed(), tg.NumSnapshots())
	for _, e := range tg.initial {
		fmt.Fprintf(bw, "0 + %d %d\n", e.X, e.Y)
	}
	for t, d := range tg.deltas {
		for _, e := range d.Del {
			fmt.Fprintf(bw, "%d - %d %d\n", t+1, e.X, e.Y)
		}
		for _, e := range d.Add {
			fmt.Fprintf(bw, "%d + %d %d\n", t+1, e.X, e.Y)
		}
	}
	return bw.Flush()
}

func parseTemporalHeader(rest string) (n int, directed bool, T int, err error) {
	directed = true
	T = 1
	for _, f := range strings.Fields(rest) {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return 0, false, 0, fmt.Errorf("bad header field %q", f)
		}
		switch key {
		case "nodes":
			if n, err = strconv.Atoi(val); err != nil || n < 0 {
				return 0, false, 0, fmt.Errorf("bad node count %q", val)
			}
		case "directed":
			if directed, err = strconv.ParseBool(val); err != nil {
				return 0, false, 0, fmt.Errorf("bad directed flag %q", val)
			}
		case "snapshots":
			if T, err = strconv.Atoi(val); err != nil || T < 1 {
				return 0, false, 0, fmt.Errorf("bad snapshot count %q", val)
			}
		default:
			return 0, false, 0, fmt.Errorf("unknown header field %q", key)
		}
	}
	return n, directed, T, nil
}
