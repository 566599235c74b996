package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"crashsim/internal/graph"
)

// fullSortTop is the reference ranking Top must reproduce: every entry
// but exclude, fully sorted by score descending then node id, cut to k.
func fullSortTop(s Scores, exclude graph.NodeID, k int) []TopKResult {
	all := make([]TopKResult, 0, len(s))
	for v, score := range s {
		if v != exclude {
			all = append(all, TopKResult{Node: v, Score: score})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	return all[:max(0, min(k, len(all)))]
}

// tiedScores draws a map of n entries over node ids in [0, 2n) whose
// scores come from a handful of values, so most entries tie with many
// others (signed zeros included).
func tiedScores(r *rand.Rand, n int) Scores {
	values := []float64{0, math.Copysign(0, -1), 0.125, 0.25, 0.25 + 1e-17, 0.5, 1}
	s := make(Scores, n)
	for len(s) < n {
		s[graph.NodeID(r.IntN(2*n))] = values[r.IntN(len(values))]
	}
	return s
}

// TestTopMatchesFullSort is the differential property test for Top and
// Result.Top: on maps with heavy score ties, and on the same entries as
// a Result, with the excluded node present and absent, every k gives
// exactly the full sort's prefix — the same node ids and the same score
// bits.
func TestTopMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewPCG(12, 34))
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for trial := 0; trial < 20; trial++ {
			s := tiedScores(r, n)
			exclude := graph.NodeID(-1) // absent
			if trial%2 == 1 && n > 0 {
				for v := range s {
					exclude = v // present
					break
				}
			}
			size := len(s)
			r := ResultOf(s)
			for _, k := range []int{-1, 0, 1, 10, size, size + 5} {
				want := fullSortTop(s, exclude, k)
				for _, got := range [][]TopKResult{Top(s, exclude, k), r.Top(exclude, k)} {
					checkRanking(t, n, k, exclude, got, want)
				}
			}
		}
	}
}

func checkRanking(t *testing.T, n, k int, exclude graph.NodeID, got, want []TopKResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("n=%d k=%d exclude=%d: %d results, oracle has %d", n, k, exclude, len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("n=%d k=%d exclude=%d rank %d: got %+v, oracle %+v", n, k, exclude, i, got[i], want[i])
		}
	}
}

// TestTopAllocationsIndependentOfN pins O(k) memory for Top and
// Result.Top: ranking 30k entries at k = 10 allocates no more than
// ranking 300 — the k-entry result and nothing proportional to n.
func TestTopAllocationsIndependentOfN(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	allocs := func(n int) (float64, float64) {
		s := tiedScores(r, n)
		res := ResultOf(s)
		return testing.AllocsPerRun(20, func() { Top(s, 0, 10) }),
			testing.AllocsPerRun(20, func() { res.Top(0, 10) })
	}
	smallMap, smallRes := allocs(300)
	largeMap, largeRes := allocs(30000)
	for _, c := range []struct {
		name         string
		small, large float64
	}{{"Top", smallMap, largeMap}, {"Result.Top", smallRes, largeRes}} {
		if c.large != c.small || c.large > 1 {
			t.Errorf("%s allocates %.0f times on 300 entries and %.0f on 30000, want one allocation for both", c.name, c.small, c.large)
		}
	}
}

// TestResultViews pins Map and Restrict: Map gives back exactly the
// entries a Result was built from, as a map of the caller's own, and
// Restrict keeps every candidate once, in first-listed order, scoring
// the ones the result lacks 0.
func TestResultViews(t *testing.T) {
	s := Scores{1: 0.5, 4: 0, 9: 0.25}
	r := ResultOf(s)
	m := r.Map()
	if len(m) != len(s) || r.Len() != len(s) {
		t.Fatalf("Map has %d entries, Len %d, want %d", len(m), r.Len(), len(s))
	}
	for v, x := range s {
		if y, ok := m[v]; !ok || math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("Map[%d] = %v, %t, want %v", v, y, ok, x)
		}
	}
	m[1] = 7
	if r.Map()[1] != 0.5 {
		t.Error("writing a Map changed the result")
	}
	got := r.Restrict([]graph.NodeID{9, 3, 9, 4})
	if want := []graph.NodeID{9, 3, 4}; !slices.Equal(got.nodes, want) {
		t.Fatalf("Restrict nodes %v, want %v", got.nodes, want)
	}
	if want := []float64{0.25, 0, 0}; !slices.Equal(got.scores, want) {
		t.Errorf("Restrict scores %v, want %v", got.scores, want)
	}
	if e := r.Restrict([]graph.NodeID{}).Map(); e == nil || len(e) != 0 {
		t.Errorf("Restrict to no candidates maps to %v, want an empty map", e)
	}
	if (Result{}).Len() != 0 || (Result{}).Top(0, 3) != nil {
		t.Error("the zero Result is not empty")
	}
}
