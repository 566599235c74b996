package sling

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

// slingWork is one pinned SLING operation's work: Entries is exact (the
// index entries a build stores, or the distribution plus inverted
// entries a query scans); Allocs and Bytes are the objects and heap
// bytes one run allocates, averaged over workRuns. Allocs may exceed
// its row by max(2, 25%) and Bytes by 25%.
type slingWork struct {
	Entries int
	Allocs  float64
	Bytes   uint64
}

// pinnedWork is the SLING work table on a 1000-node Chung–Lu graph
// (workGraph, workOptions), measured without -race.
var pinnedWork = map[string]slingWork{
	"build": {Entries: 184096, Allocs: 909, Bytes: 8510995},
	"query": {Entries: 33446, Allocs: 10, Bytes: 35256},
}

// workOptions builds the pinned index on one worker.
var workOptions = Options{DSamples: 40, Seed: 3, Workers: 1}

// workRuns is the number of runs each row averages over.
const workRuns = 5

func workGraph(t *testing.T) *graph.Graph {
	t.Helper()
	edges, err := gen.ChungLu(1000, 6000, 2.0, true, 17)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(1000, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scanned counts the entries a query from u reads: u's distribution
// entries plus the inverted entries each of them points at.
func scanned(ix *Index, u graph.NodeID) int {
	f, n := &ix.f, ix.g.NumNodes()
	total := 0
	for i := f.DistOff[u]; i < f.DistOff[u+1]; i++ {
		r := (int(f.Steps[i])-1)*n + int(f.Nodes[i])
		total += 1 + int(f.InvOff[r+1]-f.InvOff[r])
	}
	return total
}

// measure returns run's allocations and heap bytes per call, averaged
// over workRuns after a collection.
func measure(run func()) (float64, uint64) {
	runtime.GC()
	allocs := testing.AllocsPerRun(workRuns, run)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range workRuns {
		run()
	}
	runtime.ReadMemStats(&m1)
	return allocs, (m1.TotalAlloc - m0.TotalAlloc) / workRuns
}

// TestWorkCounts is SLING's work gate: the entries a build stores and a
// query from the highest in-degree node scans match their pinned rows
// exactly, and both allocate within them. A change that lowers a count
// updates its row. Allocation rows are skipped under -race.
func TestWorkCounts(t *testing.T) {
	g := workGraph(t)
	ix, err := Build(g, workOptions)
	if err != nil {
		t.Fatal(err)
	}
	var u graph.NodeID
	for v := graph.NodeID(1); int(v) < g.NumNodes(); v++ {
		if g.InDegree(v) > g.InDegree(u) {
			u = v
		}
	}
	got := map[string]slingWork{
		"build": {Entries: ix.DistSize()},
		"query": {Entries: scanned(ix, u)},
	}
	if !raceEnabled {
		build, query := got["build"], got["query"]
		build.Allocs, build.Bytes = measure(func() {
			if _, err := Build(g, workOptions); err != nil {
				t.Fatal(err)
			}
		})
		query.Allocs, query.Bytes = measure(func() {
			if _, err := ix.SingleSource(u); err != nil {
				t.Fatal(err)
			}
		})
		got["build"], got["query"] = build, query
	}
	for _, name := range []string{"build", "query"} {
		want, w := pinnedWork[name], got[name]
		var problems []string
		if w.Entries != want.Entries {
			problems = append(problems, fmt.Sprintf("Entries %d, pinned %d", w.Entries, want.Entries))
		}
		if !raceEnabled {
			if limit := want.Allocs + math.Max(2, want.Allocs/4); w.Allocs > limit {
				problems = append(problems, fmt.Sprintf("Allocs %.0f, pinned %.0f (limit %.0f)", w.Allocs, want.Allocs, limit))
			}
			if limit := want.Bytes + want.Bytes/4; w.Bytes > limit {
				problems = append(problems, fmt.Sprintf("Bytes %d, pinned %d (limit %d)", w.Bytes, want.Bytes, limit))
			}
		}
		if len(problems) > 0 {
			t.Errorf("%s: %s\n\tmeasured: %#v", name, strings.Join(problems, "; "), w)
		}
		t.Logf("%s: %+v", name, w)
	}
}
