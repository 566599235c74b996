package prsim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/graph"
)

// queryWork is one query's work on a fresh index: the index's counters
// and the entries of the answer (exact, from the first run, which
// builds the tail tables it visits), then the objects and heap bytes a
// repeat allocates once those tables are warm (averaged over
// workRuns). Allocs may exceed its row by max(2, 25%) and Bytes by 25%.
type queryWork struct {
	Visits     int64 // walk steps that landed on a node
	HubHits    int64 // visits served by an eager hub table
	TailBuilds int64 // tables built lazily by this query
	Entries    int   // scored nodes over every answered position
	Allocs     float64
	Bytes      uint64
}

// pinnedQueries is the PRSim work table on a 2000-node Chung–Lu graph
// (workOptions), measured without -race. A "/w2" row runs its query on
// an index with two workers: the counts are those of the one-worker
// row, and only the allocations of the fan-outs differ.
var pinnedQueries = map[string]queryWork{
	"single":    {Visits: 563, HubHits: 245, TailBuilds: 272, Entries: 1727, Allocs: 3, Bytes: 21296},
	"batch":     {Visits: 1715, HubHits: 757, TailBuilds: 597, Entries: 6908, Allocs: 9, Bytes: 64008},
	"single/w2": {Visits: 563, HubHits: 245, TailBuilds: 272, Entries: 1727, Allocs: 4, Bytes: 21328},
	"batch/w2":  {Visits: 1715, HubHits: 757, TailBuilds: 597, Entries: 6908, Allocs: 17, Bytes: 64777},
}

// coldWork is the objects and heap bytes of a query's first run on a
// fresh index, the tail tables it builds included. The run starts from
// empty scratch pools, so every pooled arena it uses is a miss. Allocs
// may exceed its row by max(2, 25%) and Bytes by 25%.
type coldWork struct {
	Allocs uint64
	Bytes  uint64
}

// pinnedCold is the cold row of the single-source query, measured
// without -race.
var pinnedCold = map[string]coldWork{
	"single": {Allocs: 1415, Bytes: 963512},
}

// workOptions builds the work table's indexes, at each row's width.
var workOptions = Options{Iterations: 200, DSamples: 40, Seed: 3}

// workWidths names the widths the work table pins, by row suffix.
var workWidths = []struct {
	suffix  string
	workers int
}{{"", 1}, {"/w2", 2}}

// workRuns is the number of warm repeats each row averages over.
const workRuns = 20

// prsimQuery is one pinned query: run answers it on ix.
type prsimQuery struct {
	name string
	run  func(ix *Index) ([]core.Result, error)
}

// workQueries returns the pinned queries from g's highest in-degree
// nodes: one single-source query, and a 4-source batch that repeats its
// first source.
func workQueries(g *graph.Graph) []prsimQuery {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	slices.SortStableFunc(nodes, func(a, b graph.NodeID) int { return g.InDegree(b) - g.InDegree(a) })
	ctx := context.Background()
	batch := []graph.NodeID{nodes[0], nodes[1], nodes[2], nodes[0]}
	return []prsimQuery{
		{"single", func(ix *Index) ([]core.Result, error) {
			r, err := ix.SingleSourceResult(ctx, nodes[0])
			return []core.Result{r}, err
		}},
		{"batch", func(ix *Index) ([]core.Result, error) {
			return ix.MultiSourceResults(ctx, batch, ix.Options().Workers)
		}},
	}
}

func workGraph(t *testing.T) *graph.Graph { return testGraph(t, 2000, 12000, 17) }

// measureQuery runs q once on a fresh index of the given width for its
// counts and cold allocations, then repeats it warm for its allocations
// and bytes. Two collections before the first run empty every
// sync.Pool, so the cold run misses each pool it draws from; one
// collection before the repeats resets the GC trigger, so the scratch
// pool is not emptied while they are counted.
func measureQuery(t *testing.T, g *graph.Graph, q prsimQuery, workers int) (queryWork, coldWork) {
	t.Helper()
	opt := workOptions
	opt.Workers = workers
	ix := mustBuild(t, g, opt)
	before := ix.Stats()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rs, err := q.run(ix)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatalf("%s: %v", q.name, err)
	}
	cold := coldWork{Allocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc}
	after := ix.Stats()
	w := queryWork{
		Visits:     after.Visits - before.Visits,
		HubHits:    after.HubHits - before.HubHits,
		TailBuilds: after.TailBuilds - before.TailBuilds,
	}
	for _, r := range rs {
		w.Entries += r.Len()
	}
	repeat := func() {
		if _, err := q.run(ix); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
	}
	runtime.GC()
	w.Allocs = testing.AllocsPerRun(workRuns, repeat)
	runtime.ReadMemStats(&m0)
	for range workRuns {
		repeat()
	}
	runtime.ReadMemStats(&m1)
	w.Bytes = (m1.TotalAlloc - m0.TotalAlloc) / workRuns
	return w, cold
}

// compareQuery returns one problem per field of got outside want's
// bounds, each starting with the field name; allocations and bytes
// only when checkAllocs is set.
func compareQuery(want, got queryWork, checkAllocs bool) []string {
	var problems []string
	exact := func(name string, w, g int64) {
		if w != g {
			problems = append(problems, fmt.Sprintf("%s %d, pinned %d", name, g, w))
		}
	}
	exact("Visits", want.Visits, got.Visits)
	exact("HubHits", want.HubHits, got.HubHits)
	exact("TailBuilds", want.TailBuilds, got.TailBuilds)
	exact("Entries", int64(want.Entries), int64(got.Entries))
	if !checkAllocs {
		return problems
	}
	if limit := want.Allocs + math.Max(2, want.Allocs/4); got.Allocs > limit {
		problems = append(problems, fmt.Sprintf("Allocs %.0f, pinned %.0f (limit %.0f)", got.Allocs, want.Allocs, limit))
	}
	if limit := want.Bytes + want.Bytes/4; got.Bytes > limit {
		problems = append(problems, fmt.Sprintf("Bytes %d, pinned %d (limit %d)", got.Bytes, want.Bytes, limit))
	}
	return problems
}

// TestQueryWork is PRSim's work gate: per-query visits, hub hits, tail
// builds and answer entries match their pinned row exactly, and a warm
// repeat allocates within it, as does the single query's cold first
// run. The rows measure the results the serving path reads; the public
// map calls add one map per answer on top. A change that lowers a count
// updates its row. Allocation rows are skipped under -race.
func TestQueryWork(t *testing.T) {
	g := workGraph(t)
	for _, w := range workWidths {
		for _, q := range workQueries(g) {
			name := q.name + w.suffix
			got, cold := measureQuery(t, g, q, w.workers)
			want, ok := pinnedQueries[name]
			if !ok {
				t.Errorf("%s: no pinned row", name)
				continue
			}
			if problems := compareQuery(want, got, !raceEnabled); len(problems) > 0 {
				t.Errorf("%s: %s\n\tmeasured: %#v", name, strings.Join(problems, "; "), got)
			}
			t.Logf("%s: %+v", name, got)
			if want, ok := pinnedCold[name]; ok && !raceEnabled {
				if limit := want.Allocs + max(2, want.Allocs/4); cold.Allocs > limit {
					t.Errorf("%s cold: Allocs %d, pinned %d (limit %d)", name, cold.Allocs, want.Allocs, limit)
				}
				if limit := want.Bytes + want.Bytes/4; cold.Bytes > limit {
					t.Errorf("%s cold: Bytes %d, pinned %d (limit %d)", name, cold.Bytes, want.Bytes, limit)
				}
				t.Logf("%s cold: %+v", name, cold)
			}
		}
	}
}

// TestQueryWorkCatchesMap seeds a map into the result path: every
// answer is rebuilt through a score map. The gate must reject both rows
// on their bytes.
func TestQueryWorkCatchesMap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation rows are not checked under -race")
	}
	g := workGraph(t)
	for _, q := range workQueries(g) {
		viaMap := prsimQuery{q.name, func(ix *Index) ([]core.Result, error) {
			rs, err := q.run(ix)
			for i, r := range rs {
				rs[i] = core.ResultOf(r.Map())
			}
			return rs, err
		}}
		got, _ := measureQuery(t, g, viaMap, 1)
		problems := compareQuery(pinnedQueries[q.name], got, true)
		named := false
		for _, p := range problems {
			named = named || strings.HasPrefix(p, "Bytes ")
		}
		if !named {
			t.Errorf("%s: gate passed the map path: %#v (%v)", q.name, got, problems)
		} else {
			t.Logf("%s rejected: %s", q.name, strings.Join(problems, "; "))
		}
	}
}
