package core

import (
	"math"
	"math/rand/v2"
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

// TestTopMatchesFullSort is the differential property test for Top:
// on maps with heavy score ties, with the excluded node present and
// absent, every k gives exactly the full sort's prefix — the same node
// ids and the same score bits.
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
			for _, k := range []int{-1, 0, 1, 10, size, size + 5} {
				got, want := Top(s, exclude, k), fullSortTop(s, exclude, k)
				if len(got) != len(want) {
					t.Fatalf("n=%d k=%d exclude=%d: %d results, oracle has %d", n, k, exclude, len(got), len(want))
				}
				for i := range want {
					if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("n=%d k=%d exclude=%d rank %d: got %+v, oracle %+v", n, k, exclude, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestTopAllocationsIndependentOfN pins Top's O(k) memory: ranking a
// 30k-entry map at k = 10 allocates no more than ranking a 300-entry
// one — the k-entry result and nothing proportional to the map.
func TestTopAllocationsIndependentOfN(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	allocs := func(n int) float64 {
		s := tiedScores(r, n)
		return testing.AllocsPerRun(20, func() { Top(s, 0, 10) })
	}
	small, large := allocs(300), allocs(30000)
	if large != small || large > 1 {
		t.Errorf("Top allocates %.0f times on 300 entries and %.0f on 30000, want one allocation for both", small, large)
	}
}
