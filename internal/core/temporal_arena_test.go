package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/temporal"
)

// zeroAtStartQuery keeps, at snapshot 0, exactly the nodes whose score
// is 0 and afterwards every candidate. Ω then holds the nodes the
// source cannot reach, so churn around the source changes its tree
// while every candidate's score is reused and nothing is estimated.
type zeroAtStartQuery struct{}

func (zeroAtStartQuery) Name() string                    { return "test-zero-at-start" }
func (zeroAtStartQuery) Keep(t int, _, cur float64) bool { return t > 0 || cur == 0 }

// untilQuery keeps every candidate before snapshot last and none from
// then on, so Ω empties in the middle of the history.
type untilQuery struct{ last int }

func (untilQuery) Name() string                    { return "test-until" }
func (q untilQuery) Keep(t int, _, _ float64) bool { return t < q.last }

// Transition kinds of twoComponentHistory.
const (
	quietStep = iota
	churnA
	churnB
	churnBoth
)

// twoComponentHistory is a random history over two disjoint random
// graphs: A on nodes [0, 30), holding the source 0, and B on
// [30, 60). Each of its nine transitions is quiet, churns A, churns B,
// or churns both, with every kind present. Churning B leaves the
// source tree untouched; churning A changes it.
func twoComponentHistory(t *testing.T, seed uint64, directed bool) *temporal.Graph {
	t.Helper()
	const half = 30
	r := rand.New(rand.NewPCG(seed, 77))
	kinds := []int{quietStep, churnA, churnB, churnBoth}
	for len(kinds) < 9 {
		kinds = append(kinds, r.IntN(4))
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	active := [2]int{}
	for _, k := range kinds {
		if k == churnA || k == churnBoth {
			active[0]++
		}
		if k == churnB || k == churnBoth {
			active[1]++
		}
	}
	var initial []graph.Edge
	var churns [2]*temporal.Graph
	for c := range 2 {
		edges, err := gen.ErdosRenyi(half, 80, directed, seed+uint64(c))
		if err != nil {
			t.Fatal(err)
		}
		churns[c], err = gen.Churn(half, directed, edges, gen.ChurnOptions{
			Snapshots: active[c] + 1, AddRate: 0.04, DelRate: 0.04, ActiveFraction: 1, Seed: seed + 10 + uint64(c),
		})
		if err != nil {
			t.Fatal(err)
		}
		initial = append(initial, shiftEdges(edges, graph.NodeID(c*half))...)
	}
	var next [2]int
	deltas := make([]temporal.Delta, len(kinds))
	for i, k := range kinds {
		for c := range 2 {
			if k == quietStep || (c == 0 && k == churnB) || (c == 1 && k == churnA) {
				continue
			}
			d := churns[c].Delta(next[c])
			next[c]++
			off := graph.NodeID(c * half)
			deltas[i].Add = append(deltas[i].Add, shiftEdges(d.Add, off)...)
			deltas[i].Del = append(deltas[i].Del, shiftEdges(d.Del, off)...)
		}
	}
	tg, err := temporal.New(2*half, directed, initial, deltas)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func shiftEdges(edges []graph.Edge, off graph.NodeID) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{X: e.X + off, Y: e.Y + off}
	}
	return out
}

// recycledArenaHistory replays the sequence that breaks a frozen carry
// keyed on tree pointers once tree arenas are recycled. A is a dense
// undirected component around the source 0, so every A node scores
// above 0; B is a path the source cannot reach, and zeroAtStartQuery
// leaves exactly B in Ω. Snapshot 1 changes the source tree inside A
// but estimates nothing. Snapshot 2 changes the tree again, into the
// arena that held snapshot 0's tree, and links B to A, so B's
// candidates are estimated against it.
func recycledArenaHistory(t *testing.T) *temporal.Graph {
	t.Helper()
	var initial []graph.Edge
	for x := graph.NodeID(0); x < 6; x++ {
		for y := x + 1; y < 6; y++ {
			if (x == 1 && y == 4) || (x == 2 && y == 5) || (x == 3 && y == 5) {
				continue
			}
			initial = append(initial, graph.Edge{X: x, Y: y})
		}
	}
	for x := graph.NodeID(6); x < 11; x++ {
		initial = append(initial, graph.Edge{X: x, Y: x + 1})
	}
	tg, err := temporal.New(12, false, initial, []temporal.Delta{
		{Add: []graph.Edge{{X: 1, Y: 4}}},
		{Add: []graph.Edge{{X: 2, Y: 5}, {X: 3, Y: 6}}},
		{},
		{Del: []graph.Edge{{X: 1, Y: 4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// observedRun runs CrashSim-T and records every snapshot's observed
// scores.
func observedRun(t *testing.T, tg *temporal.Graph, q TemporalQuery, p Params, opts TemporalOptions) (*TemporalResult, []Scores) {
	t.Helper()
	var seen []Scores
	opts.Observer = func(_ int, s Scores) { seen = append(seen, maps.Clone(s)) }
	res, err := CrashSimT(tg, 0, q, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, seen
}

func sameScores(a, b Scores) bool {
	if len(a) != len(b) {
		return false
	}
	for v, s := range a {
		if o, ok := b[v]; !ok || math.Float64bits(o) != math.Float64bits(s) {
			return false
		}
	}
	return true
}

// TestCrashSimTRecycledArenas: the run-owned tree arenas, the
// epoch-keyed frozen carry and the memoized snapshot freezes are pure
// optimizations. Over random histories mixing quiet transitions,
// transitions that change the source tree, transitions that leave it
// alone, transitions that recompute nothing and queries whose Ω
// empties, the default run must observe the same scores, bit for bit
// at every snapshot, as a run that rebuilds every snapshot's tree and
// compiled form with the candidate cache off — for workers 1 and 4,
// with pooling on and off.
func TestCrashSimTRecycledArenas(t *testing.T) {
	type history struct {
		name string
		tg   *temporal.Graph
	}
	histories := []history{{"recycled-arena", recycledArenaHistory(t)}}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, directed := range []bool{true, false} {
			histories = append(histories, history{
				fmt.Sprintf("seed%d-directed=%v", seed, directed), twoComponentHistory(t, seed, directed),
			})
		}
	}
	queries := []TemporalQuery{
		thresholdQuery{0}, thresholdQuery{0.01}, trendQuery{slack: 0.02}, zeroAtStartQuery{}, untilQuery{last: 4},
	}
	ablated := TemporalOptions{noCandidateCache: true, rebuildEachSnapshot: true}
	var patched, reused int
	for _, h := range histories {
		for _, q := range queries {
			for _, workers := range []int{1, 4} {
				for _, pooling := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/workers=%d/pooling=%v", h.name, q.Name(), workers, pooling)
					p := Params{Iterations: 60, Seed: 17, Workers: workers, DisablePooling: !pooling}
					got, gotSeen := observedRun(t, h.tg, q, p, TemporalOptions{})
					want, wantSeen := observedRun(t, h.tg, q, p, ablated)
					if len(gotSeen) != len(wantSeen) {
						t.Fatalf("%s: observed %d snapshots, want %d", name, len(gotSeen), len(wantSeen))
					}
					for i := range wantSeen {
						if !sameScores(gotSeen[i], wantSeen[i]) {
							t.Fatalf("%s: snapshot %d scores differ from the ablated run", name, i)
						}
					}
					if !sameScores(got.Final, want.Final) {
						t.Fatalf("%s: final scores differ from the ablated run", name)
					}
					patched += got.Stats.TreePatched
					reused += got.Stats.FrozenReused
				}
			}
		}
	}
	if patched == 0 || reused == 0 {
		t.Fatalf("default runs patched %d trees and reused %d compiled forms; the arenas and the carry were not exercised", patched, reused)
	}
}

// diffPruningHistory is a history on which difference pruning
// (Property 2) fires and its candidate-tree cache hits. The source's
// component never changes, so its tree is stable, and Ω's edges stay
// below n_r. The churn touches the in-list of y, the head of the path
// y → a → b → v. With Lmax 3, v lies in the affected area, so delta
// pruning cannot settle it. Its own tree ends at y, though, and y's
// in-list sits one level past Lmax, so the tree comparison reuses v's
// score. The quiet transition in between keeps the snapshot version,
// so the last transition finds v's cached tree.
func diffPruningHistory(t *testing.T) *temporal.Graph {
	t.Helper()
	const (
		x1, x2, y, a, b, v = 4, 5, 6, 7, 8, 9
	)
	initial := []graph.Edge{
		{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 1}, {X: 3, Y: 2}, // the source's component
		{X: y, Y: a}, {X: a, Y: b}, {X: b, Y: v}, {X: x2, Y: x1},
	}
	tg, err := temporal.New(10, true, initial, []temporal.Delta{
		{Add: []graph.Edge{{X: x1, Y: y}}},
		{},
		{Add: []graph.Edge{{X: x2, Y: y}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestCrashSimTDifferencePruningRuns pins diffPruningHistory's
// difference pruning and cache hits with Lmax 3.
func TestCrashSimTDifferencePruningRuns(t *testing.T) {
	tg := diffPruningHistory(t)
	p := Params{Lmax: 3, Eps: 0.3, Iterations: 100, Seed: 23}
	processed := 0
	res, err := CrashSimT(tg, 0, thresholdQuery{0}, p, TemporalOptions{
		Observer: func(t int, s Scores) {
			if t > 0 {
				processed += len(s)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.TreeStableSteps != 3 {
		t.Errorf("TreeStableSteps = %d, want 3: the source tree must never change", s.TreeStableSteps)
	}
	if s.ReusedDiff == 0 || s.CandTreeHits == 0 {
		t.Errorf("difference pruning idle: ReusedDiff %d, CandTreeHits %d", s.ReusedDiff, s.CandTreeHits)
	}
	if got, want := s.Evaluated+s.ReusedDelta+s.ReusedDiff, tg.NumNodes()+processed; got != want {
		t.Errorf("Evaluated(%d)+ReusedDelta(%d)+ReusedDiff(%d) = %d, want %d candidate-snapshots",
			s.Evaluated, s.ReusedDelta, s.ReusedDiff, got, want)
	}
	plain, err := CrashSimT(tg, 0, thresholdQuery{0}, p, TemporalOptions{DisableDiffPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameScores(res.Final, plain.Final) {
		t.Error("difference pruning changed the final scores")
	}
}
