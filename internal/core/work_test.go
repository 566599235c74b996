package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

// workCounts is one query's work: the estimator's counters, the size of
// the source tree and, for CrashSim-T, the per-run pruning outcome. At a
// fixed seed on one worker every count is deterministic, so a change in
// any of them is a change in what the algorithm does, not noise.
// Allocs is the per-query allocation count from testing.AllocsPerRun;
// it is the only measured field and the only one with slack.
type workCounts struct {
	Walks      uint64 // core.walks: √c-walks sampled
	Candidates uint64 // core.candidates: candidates requested
	Pruned     uint64 // core.prefilter_pruned: candidates proved zero unsampled
	Support    int    // (step, node) entries of the (first) source tree
	Evaluated  int    // CrashSim-T: candidate scores recomputed
	Reused     int    // CrashSim-T: scores reused by delta or diff pruning
	Rebuilt    int    // CrashSim-T: source trees rebuilt
	Allocs     float64
}

// workQuery is one pinned query: run answers it once and returns its
// CrashSim-T stats (zero for static queries).
type workQuery struct {
	name    string
	support int
	run     func(p Params) (TemporalStats, error)
}

// workParams are the pinned queries' parameters: n_r 100 on one worker,
// so every count is deterministic.
var workParams = Params{Iterations: 100, Seed: 7, Workers: 1}

// pinnedWork is the work gate's table: each pinned query's counts and
// allocations, measured without -race.
var pinnedWork = map[string]workCounts{
	"as-733/single":                 {Walks: 11100, Candidates: 129, Pruned: 17, Support: 3845, Allocs: 5},
	"as-733/topk":                   {Walks: 16650, Candidates: 257, Pruned: 34, Support: 3845, Allocs: 19},
	"as-733/multi":                  {Walks: 22200, Candidates: 258, Pruned: 34, Support: 3845, Allocs: 18},
	"as-caida/single":               {Walks: 43300, Candidates: 530, Pruned: 96, Support: 15197, Allocs: 5},
	"as-caida/topk":                 {Walks: 64950, Candidates: 1059, Pruned: 192, Support: 15197, Allocs: 22},
	"as-caida/multi":                {Walks: 86600, Candidates: 1060, Pruned: 192, Support: 15197, Allocs: 18},
	"wiki-vote/single":              {Walks: 14100, Candidates: 142, Support: 4958, Allocs: 5},
	"wiki-vote/topk":                {Walks: 21150, Candidates: 283, Support: 4958, Allocs: 20},
	"wiki-vote/multi":               {Walks: 28200, Candidates: 284, Support: 4958, Allocs: 18},
	"hepth/single":                  {Walks: 19700, Candidates: 198, Support: 6787, Allocs: 5},
	"hepth/topk":                    {Walks: 29550, Candidates: 395, Support: 6787, Allocs: 20},
	"hepth/multi":                   {Walks: 39400, Candidates: 396, Support: 6787, Allocs: 18},
	"hepph/single":                  {Walks: 35700, Candidates: 691, Pruned: 333, Support: 13395, Allocs: 5},
	"hepph/topk":                    {Walks: 53550, Candidates: 1381, Pruned: 666, Support: 13395, Allocs: 22},
	"hepph/multi":                   {Walks: 71400, Candidates: 1382, Pruned: 666, Support: 13395, Allocs: 18},
	"as-733-history/test-trend":     {Walks: 83600, Candidates: 887, Pruned: 44, Support: 9521, Evaluated: 887, Reused: 1202, Rebuilt: 6, Allocs: 140},
	"as-733-history/test-threshold": {Walks: 27900, Candidates: 330, Pruned: 44, Support: 9521, Evaluated: 330, Reused: 8, Rebuilt: 6, Allocs: 138},
}

// workAllocRuns is the AllocsPerRun count per query.
const workAllocRuns = 5

// TestWorkCounts is the work gate: it pins, per query, how many walks,
// candidates, prefilter prunes and tree entries CrashSim
// spends on each of the paper's five dataset profiles (scale 0.02) and
// a small as-733-shaped CrashSim-T history, plus each query's
// allocations. Counts must match exactly; a change that lowers one
// updates its row. Allocations may exceed their row by max(2, 25%).
// Under -race the allocation rows are skipped: the race runtime drops
// pooled items at random, so allocations swing with it.
func TestWorkCounts(t *testing.T) {
	queries := workQueries(t)
	for _, q := range queries {
		want, ok := pinnedWork[q.name]
		if !ok {
			t.Errorf("%s: no pinned row", q.name)
			continue
		}
		got := measureWork(t, q, workParams)
		if problems := compareWork(want, got, !raceEnabled); len(problems) > 0 {
			t.Errorf("%s: %s\n\tmeasured: %#v", q.name, strings.Join(problems, "; "), got)
		}
	}
	if len(pinnedWork) != len(queries) {
		t.Errorf("%d pinned rows for %d queries", len(pinnedWork), len(queries))
	}
}

// TestWorkGateCatchesRegressions seeds three regressions into pinned
// queries and requires the gate to reject each against its pinned row,
// naming the counter that moved: doubled walks, a disabled zero-score
// prefilter, and cold scratch pools, emptied by two collections before
// every call (allocations; not checked under -race, see
// TestWorkCounts).
func TestWorkGateCatchesRegressions(t *testing.T) {
	queries := workQueries(t)
	pick := func(name string) workQuery {
		for _, q := range queries {
			if q.name == name {
				return q
			}
		}
		t.Fatalf("no pinned query %q", name)
		return workQuery{}
	}
	doubled := workParams
	doubled.Iterations *= 2
	noPrefilter := workParams
	noPrefilter.DisablePrefilter = true
	cases := []struct {
		name    string
		query   string
		p       Params
		cold    bool
		counter string
		allocs  bool
	}{
		{"doubled-walks", "hepth/single", doubled, false, "Walks", false},
		{"no-prefilter/as-733", "as-733/single", noPrefilter, false, "Walks", false},
		{"no-prefilter/hepph", "hepph/single", noPrefilter, false, "Walks", false},
		{"cold-pools", "hepph/single", workParams, true, "Allocs", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.allocs && raceEnabled {
				t.Skip("allocation rows are not checked under -race")
			}
			q := pick(tc.query)
			if tc.cold {
				run := q.run
				q.run = func(p Params) (TemporalStats, error) {
					emptyPools()
					return run(p)
				}
			}
			got := measureWork(t, q, tc.p)
			problems := compareWork(pinnedWork[tc.query], got, tc.allocs)
			if len(problems) == 0 {
				t.Fatalf("gate passed a seeded regression: %#v", got)
			}
			t.Logf("rejected: %s", strings.Join(problems, "; "))
			named := false
			for _, p := range problems {
				named = named || strings.HasPrefix(p, tc.counter+" ")
			}
			if !named {
				t.Errorf("gate did not name %s: %v", tc.counter, problems)
			}
		})
	}
}

// compareWork returns one problem per count of got that differs from
// want, each starting with the field name, plus an allocation problem
// when checkAllocs is set and got allocates more than want allows.
func compareWork(want, got workCounts, checkAllocs bool) []string {
	var problems []string
	exact := func(name string, w, g uint64) {
		if w != g {
			problems = append(problems, fmt.Sprintf("%s %d, pinned %d", name, g, w))
		}
	}
	exact("Walks", want.Walks, got.Walks)
	exact("Candidates", want.Candidates, got.Candidates)
	exact("Pruned", want.Pruned, got.Pruned)
	exact("Support", uint64(want.Support), uint64(got.Support))
	exact("Evaluated", uint64(want.Evaluated), uint64(got.Evaluated))
	exact("Reused", uint64(want.Reused), uint64(got.Reused))
	exact("Rebuilt", uint64(want.Rebuilt), uint64(got.Rebuilt))
	if checkAllocs {
		if limit := want.Allocs + math.Max(2, want.Allocs/4); got.Allocs > limit {
			problems = append(problems, fmt.Sprintf("Allocs %.0f, pinned %.0f (limit %.0f)", got.Allocs, want.Allocs, limit))
		}
	}
	return problems
}

// measureWork runs q once under p for its counts, then again under
// testing.AllocsPerRun for its allocations. A collection first resets
// the GC trigger: the scratch pools empty only after two collections,
// so none falls due while the allocations are counted.
func measureWork(t *testing.T, q workQuery, p Params) workCounts {
	t.Helper()
	walks, cands, pruned := statWalks.Load(), statCandidates.Load(), statPrefilterPruned.Load()
	st, err := q.run(p)
	if err != nil {
		t.Fatalf("%s: %v", q.name, err)
	}
	w := workCounts{
		Walks:      statWalks.Load() - walks,
		Candidates: statCandidates.Load() - cands,
		Pruned:     statPrefilterPruned.Load() - pruned,
		Support:    q.support,
		Evaluated:  st.Evaluated,
		Reused:     st.ReusedDelta + st.ReusedDiff,
		Rebuilt:    st.TreeRebuilt,
	}
	runtime.GC()
	w.Allocs = testing.AllocsPerRun(workAllocRuns, func() {
		if _, err := q.run(p); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
	})
	return w
}

// workQueries builds the pinned queries: SingleSource, TopK and a
// MultiSource batch with a duplicate source on each of the five
// profiles, from the two highest-degree nodes of the giant component,
// then one trend and one threshold CrashSim-T query on a small
// as-733-shaped history.
func workQueries(t *testing.T) []workQuery {
	t.Helper()
	var qs []workQuery
	for _, prof := range gen.Profiles() {
		p := prof.Scaled(0.02)
		g, err := p.Static(1)
		if err != nil {
			t.Fatal(err)
		}
		u, u2 := topDegreeNodes(g)
		support := treeSupport(t, g, u)
		qs = append(qs,
			workQuery{p.Name + "/single", support, func(p Params) (TemporalStats, error) {
				_, err := SingleSource(g, u, nil, p)
				return TemporalStats{}, err
			}},
			workQuery{p.Name + "/topk", support, func(p Params) (TemporalStats, error) {
				_, err := TopK(g, u, 10, p)
				return TemporalStats{}, err
			}},
			workQuery{p.Name + "/multi", support, func(p Params) (TemporalStats, error) {
				_, err := MultiSource(context.Background(), g, []graph.NodeID{u, u2, u}, nil, p)
				return TemporalStats{}, err
			}},
		)
	}
	tg := asHistory(t, 0.05)
	g0, err := tg.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := topDegreeNodes(g0)
	support := treeSupport(t, g0, u)
	for _, tq := range []TemporalQuery{trendQuery{}, thresholdQuery{theta: 0.1}} {
		qs = append(qs, workQuery{"as-733-history/" + tq.Name(), support, func(p Params) (TemporalStats, error) {
			res, err := CrashSimT(tg, u, tq, p, TemporalOptions{})
			if err != nil {
				return TemporalStats{}, err
			}
			return res.Stats, nil
		}})
	}
	return qs
}

// topDegreeNodes returns the giant component's two nodes of highest
// total degree, ties broken by id.
func topDegreeNodes(g *graph.Graph) (graph.NodeID, graph.NodeID) {
	nodes := graph.GiantComponent(g)
	deg := func(v graph.NodeID) int { return g.InDegree(v) + g.OutDegree(v) }
	slices.SortStableFunc(nodes, func(a, b graph.NodeID) int { return deg(b) - deg(a) })
	return nodes[0], nodes[1]
}

func treeSupport(t *testing.T, g *graph.Graph, u graph.NodeID) int {
	t.Helper()
	tree, err := BuildTree(g, u, workParams)
	if err != nil {
		t.Fatal(err)
	}
	return tree.Support()
}
