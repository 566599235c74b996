package graph_test

import (
	"bytes"
	"math"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

// edgeListFile returns the named profile's graph at scale, seed 1, as
// WriteEdgeList writes it. web-1m@0.1 is the graph the serving
// benchmark's hot workload loads at start-up.
func edgeListFile(tb testing.TB, profile string, scale float64) []byte {
	tb.Helper()
	prof, err := gen.ProfileByName(profile)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := prof.Scaled(scale).Static(1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadEdgeList prices a server's graph load: ReadEdgeList of
// the web-1m@0.1 edge list (30k nodes, 120k edges), and the same file
// through the reference reader the fuzz target compares it with (a
// string and a field slice per line, a map of every edge in the build).
func BenchmarkReadEdgeList(b *testing.B) {
	data := edgeListFile(b, "web-1m", 0.1)
	for _, r := range []struct {
		name string
		read func([]byte) (*graph.Graph, error)
	}{
		{"reader", func(d []byte) (*graph.Graph, error) { return graph.ReadEdgeList(bytes.NewReader(d)) }},
		{"oracle", func(d []byte) (*graph.Graph, error) {
			return graph.OracleReadEdgeList(bytes.NewReader(d), graph.DefaultMaxNodes)
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

// readAllocs pins the allocations of one ReadEdgeList per input,
// measured on go1.24.0 without -race. The count does not grow with the
// edge count beyond the edge chunks, each twice the last, so a per-line
// or per-edge allocation shows at once.
var readAllocs = map[string]float64{
	"hepth@0.1":  21,
	"web-1m@0.1": 27,
}

// TestReadAllocs is the reader's allocation gate: each input's read may
// exceed its pinned row by max(2, 25%), and the reference reader, which
// allocates per line, must not fit the rows. Skipped under -race, which
// makes allocation counts swing.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation rows are not checked under -race")
	}
	for _, in := range []struct {
		name    string
		profile string
		scale   float64
	}{{"hepth@0.1", "hepth", 0.1}, {"web-1m@0.1", "web-1m", 0.1}} {
		data := edgeListFile(t, in.profile, in.scale)
		limit := readAllocs[in.name] + math.Max(2, readAllocs[in.name]/4)
		measure := func(read func(*bytes.Reader) (*graph.Graph, error)) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := read(bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			})
		}
		got := measure(func(r *bytes.Reader) (*graph.Graph, error) { return graph.ReadEdgeList(r) })
		if got > limit {
			t.Errorf("%s: ReadEdgeList allocates %.0f, pinned %.0f (limit %.0f)", in.name, got, readAllocs[in.name], limit)
		}
		t.Logf("%s: ReadEdgeList allocates %.0f", in.name, got)
		oracle := measure(func(r *bytes.Reader) (*graph.Graph, error) {
			return graph.OracleReadEdgeList(r, graph.DefaultMaxNodes)
		})
		if oracle <= limit {
			t.Errorf("%s: the reference reader's %.0f allocations fit the limit %.0f", in.name, oracle, limit)
		}
	}
}
