package temporal

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"crashsim/internal/graph"
)

func TestTemporalIORoundTrip(t *testing.T) {
	tg := mustTemporal(t, 4, true,
		[]graph.Edge{{X: 0, Y: 1}, {X: 2, Y: 3}},
		[]Delta{
			{Add: []graph.Edge{{X: 1, Y: 2}}},
			{Del: []graph.Edge{{X: 0, Y: 1}}},
		})
	var buf bytes.Buffer
	if err := Write(&buf, tg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumNodes() != 4 || got.NumSnapshots() != 3 || !got.Directed() {
		t.Fatalf("round trip header mismatch: n=%d T=%d", got.NumNodes(), got.NumSnapshots())
	}
	for i := 0; i < 3; i++ {
		a, err := tg.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumEdges() != b.NumEdges() {
			t.Errorf("snapshot %d edges %d vs %d", i, a.NumEdges(), b.NumEdges())
		}
		for _, e := range a.Edges() {
			if !b.HasEdge(e.X, e.Y) {
				t.Errorf("snapshot %d lost edge %v", i, e)
			}
		}
	}
}

func TestTemporalReadLimits(t *testing.T) {
	huge := "# crashsim-temporal: nodes=999999999 directed=true snapshots=2\n"
	if _, err := Read(strings.NewReader(huge)); err == nil {
		t.Error("absurd node count accepted by default limit")
	}
	manySnaps := "# crashsim-temporal: nodes=3 directed=true snapshots=999999999\n"
	if _, err := Read(strings.NewReader(manySnaps)); err == nil {
		t.Error("absurd snapshot count accepted")
	}
	if _, err := ReadLimit(strings.NewReader("# crashsim-temporal: nodes=100 snapshots=1\n"), 50); err == nil {
		t.Error("explicit limit not enforced")
	}
}

func TestTemporalReadErrors(t *testing.T) {
	header := "# crashsim-temporal: nodes=3 directed=true snapshots=2\n"
	cases := []struct {
		name, in, want string
	}{
		{"missing header", "0 + 0 1\n", "missing"},
		{"bad field count", header + "0 + 1\n", "want 4 fields"},
		{"bad snapshot", header + "9 + 0 1\n", "bad snapshot index"},
		{"unsorted", header + "1 + 0 1\n0 + 1 2\n", "not sorted"},
		{"bad op", header + "0 * 0 1\n", "bad op"},
		{"bad node", header + "0 + a 1\n", "bad node id"},
		{"del at zero", header + "0 - 0 1\n", "deletion in initial snapshot"},
		{"bad header nodes", "# crashsim-temporal: nodes=x\n", "bad node count"},
		{"bad header snapshots", "# crashsim-temporal: nodes=3 snapshots=0\n", "bad snapshot count"},
		{"unknown header", "# crashsim-temporal: color=red\n", "unknown header field"},
		{"empty", "", "missing header"},
		{"inconsistent delta", header + "1 - 0 1\n", "not present"},
		{"repeated header", header + "0 + 0 1\n1 + 1 2\n# crashsim-temporal: nodes=3 directed=false snapshots=3\n", "line 4: repeated"},
		{"too many snapshots", "# crashsim-temporal: nodes=2 directed=true snapshots=1048577\n", "above the limit of 1048576"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// oracleRead is the reference FuzzRead holds ReadLimit to: every line
// through strings.Fields and strconv, as the reader parsed before its
// byte fast path.
func oracleRead(r io.Reader, maxNodes int) (*Graph, error) {
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

// sameHistory reports how got differs from want: dimensions, the
// parsed edges of snapshot 0 and of every delta, and every snapshot's
// CSR arrays and version, read off two cursors in step.
func sameHistory(got, want *Graph) error {
	if got.NumNodes() != want.NumNodes() || got.Directed() != want.Directed() || got.NumSnapshots() != want.NumSnapshots() {
		return fmt.Errorf("n/directed/T %d/%t/%d, want %d/%t/%d", got.NumNodes(), got.Directed(), got.NumSnapshots(),
			want.NumNodes(), want.Directed(), want.NumSnapshots())
	}
	if !slices.Equal(got.initial, want.initial) {
		return fmt.Errorf("initial edges differ")
	}
	for i, d := range got.deltas {
		if !slices.Equal(d.Add, want.deltas[i].Add) || !slices.Equal(d.Del, want.deltas[i].Del) {
			return fmt.Errorf("delta %d differs", i)
		}
	}
	gc, _ := got.Cursor()
	wc, _ := want.Cursor()
	for {
		g, w := gc.Freeze(), wc.Freeze()
		if g.Version() != w.Version() {
			return fmt.Errorf("snapshot %d: version %d, want %d", gc.T(), g.Version(), w.Version())
		}
		gOff, gAdj := g.InCSR()
		wOff, wAdj := w.InCSR()
		gOutOff, gOutAdj := g.OutCSR()
		wOutOff, wOutAdj := w.OutCSR()
		if !slices.Equal(gOff, wOff) || !slices.Equal(gAdj, wAdj) || !slices.Equal(gOutOff, wOutOff) || !slices.Equal(gOutAdj, wOutAdj) {
			return fmt.Errorf("snapshot %d: CSR arrays differ", gc.T())
		}
		if !gc.Next() || !wc.Next() {
			return nil
		}
	}
}
