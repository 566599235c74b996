package temporal

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"crashsim/internal/graph"
)

// FuzzRead checks that the temporal parser never panics, that it
// returns what oracleRead returns (the same edges, snapshots and
// versions, or the same error text), and that every successfully parsed
// history round-trips through the writer.
func FuzzRead(f *testing.F) {
	f.Add("# crashsim-temporal: nodes=3 directed=true snapshots=2\n0 + 0 1\n1 - 0 1\n")
	f.Add("# crashsim-temporal: nodes=2 directed=false snapshots=1\n0 + 0 1\n")
	f.Add("0 + 0 1\n")
	f.Add("# crashsim-temporal: nodes=x\n")
	f.Add("# crashsim-temporal: nodes=3 snapshots=2\n1 * 0 1\n")
	f.Add("# crashsim-temporal: nodes=3 directed=true snapshots=2\n0 + 0 1\n1 + 1 2\n# crashsim-temporal: nodes=3 directed=false snapshots=3\n")
	// Each boundary line alone, and after lines that set the previous
	// snapshot index, so a t of 0 or 1 comes out of order.
	const header = "# crashsim-temporal: nodes=3 directed=true snapshots=3\n"
	for _, line := range fastPathChanges {
		f.Add(header + line + "\n")
		f.Add(header + "0 + 0 1\n2 + 1 0\n" + line + "\n")
	}
	f.Add("# crashsim-temporal: nodes=3 directed=false snapshots=2\n0 + 0 1\n0 + 1 0\n")
	f.Add("# crashsim-temporal: nodes=2 directed=true snapshots=1048577\n")
	f.Fuzz(func(t *testing.T, input string) {
		tg, err := ReadLimit(strings.NewReader(input), 1<<16)
		want, wantErr := oracleRead(strings.NewReader(input), 1<<16)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("err = %v, oracle %v\ninput: %q", err, wantErr, input)
		}
		if err != nil {
			return
		}
		if err := sameHistory(tg, want); err != nil {
			t.Fatalf("history differs from the oracle's: %v\ninput: %q", err, input)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tg); err != nil {
			t.Fatalf("writing parsed history: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v\noutput: %q", err, buf.String())
		}
		if back.NumNodes() != tg.NumNodes() || back.NumSnapshots() != tg.NumSnapshots() {
			t.Fatal("round trip changed dimensions")
		}
	})
}

// fastPathChanges are history lines at the boundary between ReadLimit's
// fast path and its general path, for a 3-node history of 3 snapshots.
var fastPathChanges = []string{
	"00 + 000 02",
	"0 +5 1 2",
	"0 + +1 2",
	"+0 + 1 2",
	"0\t+\t1\t2",
	" \t1 + 1 2\t ",
	"0 + 1\v2",
	"0\f+ 1 2",
	"0 +\u00a01 2",
	"0 + 1 2\u0085",
	"1 + 1 2\r",
	"1 + 1 2 \r",
	"1 + 1\r2",
	"0 + 2147483647 0",
	"0 + 2147483648 0",
	"0 + 0 1 2",
	"0 + 0",
	"3 + 0 1",
	"99999999999 + 0 1",
	"0 - 0 1",
	"1 - 0 1",
	"0+ 0 1",
	"1- 0 1",
	"0 -- 0 1",
	"0 +- 0 1",
	"2 + 2 2",
	"2 + 0 9",
}

// FuzzCursor is the differential check of the cursor against a map
// model of the edge set. The input decodes to n ≤ 16, a direction, an
// initial edge list and 1–6 deltas, whose edges are either raw ids
// (some out of range, some self-loops) or picks from the edges live
// when the delta starts, so deltas repeat edges, delete and re-add the
// same edge, and add present or delete missing ones. The model decides
// whether New must fail and with which error. Otherwise every snapshot
// must equal the Builder's CSR of the model's edge set, both when the
// cursor freezes at every step and when it freezes only every few
// steps, so pending changes accumulate; every version must be the
// initial edge count plus the sizes of the deltas so far; and Snapshot
// must agree.
func FuzzCursor(f *testing.F) {
	// Byte layout: n, flags (bit 0 undirected, (flags>>1)%6 + 1 deltas,
	// (flags>>4)%3 + 2 the sparse pass's freeze stride), the initial
	// edge count (mod 9) and its edges, then per delta a deletion count
	// (mod 5), those edges, an insertion count (mod 5) and those edges.
	// An edge is two bytes a, b: with a's high bit set it is live edge b
	// (mod the live count), reversed if a&0x40; otherwise the ids
	// a%(n+2)-1 and b%(n+2)-1.
	f.Add([]byte{})
	// Directed: delete and re-add one edge in a delta, an empty delta,
	// then churn.
	f.Add([]byte{4, 6, 3, 1, 2, 2, 3, 3, 4, 1, 0x80, 0, 1, 1, 2, 0, 0, 1, 0x80, 1, 2, 4, 1, 2, 4, 0, 1, 3, 1})
	// Undirected: edges given either way round, an edge deleted and
	// re-added across deltas, a trailing empty delta.
	f.Add([]byte{5, 5, 2, 1, 2, 4, 3, 1, 0xC0, 1, 1, 5, 1, 1, 2, 1, 1, 3, 4, 0, 0})
	f.Add([]byte{3, 0, 2, 1, 2, 1, 2})                      // repeated initial edge
	f.Add([]byte{3, 1, 2, 1, 2, 2, 1})                      // repeated undirected initial edge, reversed
	f.Add([]byte{3, 0, 1, 1, 2, 0, 1, 2, 2})                // self-loop
	f.Add([]byte{3, 0, 0, 0, 1, 0, 4})                      // out of range
	f.Add([]byte{3, 0, 1, 1, 2, 0, 1, 1, 2})                // add a present edge
	f.Add([]byte{3, 0, 0, 1, 2, 3})                         // delete a missing edge
	f.Add([]byte{3, 2, 1, 1, 2, 1, 0x80, 0, 0, 1, 1, 2, 0}) // fails in the second delta
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := next() % 17
		flags := next()
		directed := flags&1 == 0
		canon := func(e graph.Edge) graph.Edge {
			if !directed && e.X > e.Y {
				e.X, e.Y = e.Y, e.X
			}
			return e
		}
		model := map[graph.Edge]bool{}
		edgeSet := func() []graph.Edge {
			es := make([]graph.Edge, 0, len(model))
			for e := range model {
				es = append(es, e)
			}
			slices.SortFunc(es, func(a, b graph.Edge) int {
				return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
			})
			return es
		}
		edges := func(count int, live []graph.Edge) []graph.Edge {
			es := make([]graph.Edge, count)
			for i := range es {
				a, b := next(), next()
				if a&0x80 != 0 && len(live) > 0 {
					es[i] = live[b%len(live)]
					if a&0x40 != 0 {
						es[i].X, es[i].Y = es[i].Y, es[i].X
					}
					continue
				}
				es[i] = graph.Edge{X: graph.NodeID((a&0x7f)%(n+2) - 1), Y: graph.NodeID(b%(n+2) - 1)}
			}
			return es
		}
		// apply makes each change to the model in order and returns the
		// error the cursor must report for the first it refuses.
		apply := func(es []graph.Edge, add bool) string {
			for _, e := range es {
				switch k := canon(e); {
				case e.X < 0 || int(e.X) >= n || e.Y < 0 || int(e.Y) >= n:
					return "out of range"
				case e.X == e.Y:
					return "self-loop"
				case model[k] && add:
					return "already present"
				case !model[k] && !add:
					return "not present"
				case add:
					model[k] = true
				default:
					delete(model, k)
				}
			}
			return ""
		}

		initial := edges(next()%9, nil)
		wantErr, where := apply(initial, true), "initial snapshot"
		snaps := [][]graph.Edge{edgeSet()}
		versions := []uint64{uint64(len(initial))}
		var deltas []Delta
		for i := 0; wantErr == "" && i < 1+(flags>>1)%6; i++ {
			live := edgeSet()
			d := Delta{Del: edges(next()%5, live)}
			d.Add = edges(next()%5, live)
			deltas = append(deltas, d)
			if wantErr = apply(d.Del, false); wantErr == "" {
				wantErr = apply(d.Add, true)
			}
			where = fmt.Sprintf("delta %d:", i)
			snaps = append(snaps, edgeSet())
			versions = append(versions, versions[i]+uint64(d.Size()))
		}

		tg, err := New(n, directed, initial, deltas)
		if wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), where) || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("New: err = %v, want %q at %q", err, wantErr, where)
			}
			return
		}
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		check := func(what string, t0 int, g *graph.Graph) {
			t.Helper()
			want := graph.NewBuilder(n, directed).AddEdges(snaps[t0]).MustFreeze()
			gotOff, gotAdj := g.InCSR()
			wantOff, wantAdj := want.InCSR()
			gotOutOff, gotOutAdj := g.OutCSR()
			wantOutOff, wantOutAdj := want.OutCSR()
			if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) ||
				!slices.Equal(gotOutOff, wantOutOff) || !slices.Equal(gotOutAdj, wantOutAdj) {
				t.Fatalf("%s: snapshot %d's CSR differs from the model's", what, t0)
			}
			if g.Version() != versions[t0] {
				t.Fatalf("%s: snapshot %d has version %d, want %d", what, t0, g.Version(), versions[t0])
			}
		}
		stride := 2 + (flags>>4)%3
		for _, every := range []int{1, stride} {
			cur, err := tg.Cursor()
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("freezing every %d steps", every)
			var prev *graph.Graph
			for {
				if t0 := cur.T(); t0%every == every-1 || t0 == len(deltas) {
					g := cur.Freeze()
					check(what, t0, g)
					if every == 1 && t0 > 0 && (g == prev) != (versions[t0] == versions[t0-1]) {
						t.Fatalf("snapshot %d: graph reused %v, version unchanged %v", t0, g == prev, versions[t0] == versions[t0-1])
					}
					prev = g
				}
				if !cur.Next() {
					break
				}
			}
			if err := cur.Err(); err != nil || cur.T() != len(deltas) {
				t.Fatalf("%s: cursor stopped at %d of %d: %v", what, cur.T(), len(deltas), err)
			}
		}
		for t0 := range snaps {
			g, err := tg.Snapshot(t0)
			if err != nil {
				t.Fatal(err)
			}
			check("Snapshot", t0, g)
		}
	})
}
