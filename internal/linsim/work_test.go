package linsim

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

// queryWork is the objects and heap bytes one warm query allocates,
// averaged over workRuns. Allocs may exceed its row by max(2, 25%) and
// Bytes by 25%.
type queryWork struct {
	Allocs float64
	Bytes  uint64
}

// pinnedQueries is linsim's query work on Chung–Lu graphs of n nodes
// and 10n edges at series depth K, measured without -race on go1.24.0.
// A warm query holds two n-vectors (the result and the sweep's second
// buffer) and reads its forward levels from core's pooled arena, so
// the bytes follow n and stay flat in K.
var pinnedQueries = map[string]queryWork{
	"n=2000/K=5":  {Allocs: 2, Bytes: 32768},
	"n=2000/K=30": {Allocs: 2, Bytes: 32768},
	"n=8000/K=5":  {Allocs: 2, Bytes: 131072},
	"n=8000/K=30": {Allocs: 2, Bytes: 131072},
}

// workRuns is the number of warm repeats each row averages over.
const workRuns = 20

// TestQueryAllocs is linsim's work gate: a warm query from the highest
// in-degree node allocates within its pinned row at two graph sizes and
// two depths. A query that kept a dense vector per level would allocate
// 3K+2 n-vectors and miss every row. The rows are measured on one P
// with collection off: a collection or a GOMAXPROCS change empties the
// arena's pool (testing.AllocsPerRun sets GOMAXPROCS to 1), and the
// refill would count as the query's. Skipped under -race.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{2000, 8000} {
		edges, err := gen.ChungLu(n, 10*n, 2.0, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gen.BuildStatic(n, true, edges)
		if err != nil {
			t.Fatal(err)
		}
		var u graph.NodeID
		for v := graph.NodeID(1); int(v) < n; v++ {
			if g.InDegree(v) > g.InDegree(u) {
				u = v
			}
		}
		for _, k := range []int{5, 30} {
			name := fmt.Sprintf("n=%d/K=%d", n, k)
			s, err := New(g, Options{K: k, DSamples: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := s.SingleSource(u); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pooled arena
			got := queryWork{Allocs: testing.AllocsPerRun(workRuns, run)}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for range workRuns {
				run()
			}
			runtime.ReadMemStats(&m1)
			got.Bytes = (m1.TotalAlloc - m0.TotalAlloc) / workRuns
			want := pinnedQueries[name]
			if limit := want.Allocs + math.Max(2, want.Allocs/4); got.Allocs > limit {
				t.Errorf("%s: Allocs %.0f, pinned %.0f (limit %.0f)", name, got.Allocs, want.Allocs, limit)
			}
			if limit := want.Bytes + want.Bytes/4; got.Bytes > limit {
				t.Errorf("%s: Bytes %d, pinned %d (limit %d)", name, got.Bytes, want.Bytes, limit)
			}
			t.Logf("%s: %+v", name, got)
		}
	}
}
