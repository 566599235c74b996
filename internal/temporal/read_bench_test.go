package temporal_test

import (
	"bytes"
	"math"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/temporal"
)

// historyFile returns the temporal benchmark workload's history shape as
// Write writes it: the as-733 profile's graph at scale, seed 1, over 15
// snapshots whose 14 transitions are 6 churned ones spaced evenly among
// quiet ones.
func historyFile(tb testing.TB, scale float64) []byte {
	tb.Helper()
	prof, err := gen.ProfileByName("as-733")
	if err != nil {
		tb.Fatal(err)
	}
	prof = prof.Scaled(scale)
	edges, err := prof.StaticEdges(1)
	if err != nil {
		tb.Fatal(err)
	}
	const steps, active = 14, 6
	churn, err := gen.Churn(prof.Nodes, prof.Directed, edges, gen.ChurnOptions{
		Snapshots: active + 1, AddRate: prof.ChurnRate, DelRate: prof.ChurnRate, ActiveFraction: 1, Seed: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	deltas := make([]temporal.Delta, steps)
	for i := range active {
		deltas[(2*i+1)*steps/(2*active)] = churn.Delta(i)
	}
	tg, err := temporal.New(prof.Nodes, prof.Directed, edges, deltas)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := temporal.Write(&buf, tg); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkTemporalRead prices a temporal history load: Read of the
// as-733 history (6,474 nodes, 13,233 edges, 15 snapshots), and the
// same file through the reference reader the fuzz target compares it
// with (a string and a field slice per line).
func BenchmarkTemporalRead(b *testing.B) {
	data := historyFile(b, 1)
	for _, r := range []struct {
		name string
		read func([]byte) (*temporal.Graph, error)
	}{
		{"reader", func(d []byte) (*temporal.Graph, error) { return temporal.Read(bytes.NewReader(d)) }},
		{"oracle", func(d []byte) (*temporal.Graph, error) {
			return temporal.OracleRead(bytes.NewReader(d), graph.DefaultMaxNodes)
		}},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.read(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// readAllocs pins the allocations of one Read per history scale,
// measured on go1.24.0 without -race. Past the scanner buffer, the
// history's edge slices and snapshot 0, the count grows only with the
// slices' doublings, so a per-line allocation shows at once.
var readAllocs = map[float64]float64{
	0.25: 104,
	1:    149,
}

// TestReadAllocs is the reader's allocation gate: each history's read
// may exceed its pinned row by max(2, 25%), and the reference reader,
// which allocates per line, must not fit the rows. Skipped under -race,
// which makes allocation counts swing.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation rows are not checked under -race")
	}
	for _, scale := range []float64{0.25, 1} {
		data := historyFile(t, scale)
		limit := readAllocs[scale] + math.Max(2, readAllocs[scale]/4)
		measure := func(read func(*bytes.Reader) (*temporal.Graph, error)) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := read(bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			})
		}
		got := measure(func(r *bytes.Reader) (*temporal.Graph, error) { return temporal.Read(r) })
		if got > limit {
			t.Errorf("as-733@%g: Read allocates %.0f, pinned %.0f (limit %.0f)", scale, got, readAllocs[scale], limit)
		}
		t.Logf("as-733@%g: Read allocates %.0f", scale, got)
		oracle := measure(func(r *bytes.Reader) (*temporal.Graph, error) {
			return temporal.OracleRead(r, graph.DefaultMaxNodes)
		})
		if oracle <= limit {
			t.Errorf("as-733@%g: the reference reader's %.0f allocations fit the limit %.0f", scale, oracle, limit)
		}
	}
}
