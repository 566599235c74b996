package metrics

import (
	"math"
	"testing"

	"crashsim/internal/graph"
)

func ids(vs ...graph.NodeID) []graph.NodeID { return vs }

func TestPrecisionAtK(t *testing.T) {
	truth := ids(1, 2, 3, 4, 5)
	cases := []struct {
		est  []graph.NodeID
		k    int
		want float64
	}{
		{ids(1, 2, 3), 3, 1},
		{ids(3, 2, 1), 3, 1}, // order within top-k irrelevant
		{ids(1, 9, 8), 3, 1.0 / 3},
		{ids(9, 8, 7), 3, 0},
		{ids(1, 2), 3, 2.0 / 3},     // short estimate
		{ids(1, 2, 3, 4, 5), 10, 1}, // k clamped to len(truth)
	}
	for i, tc := range cases {
		if got := PrecisionAtK(truth, tc.est, tc.k); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("case %d: PrecisionAtK = %g, want %g", i, got, tc.want)
		}
	}
	if PrecisionAtK(truth, ids(1), 0) != 0 {
		t.Error("k=0 should be 0")
	}
}

func TestNDCGAtK(t *testing.T) {
	scores := map[graph.NodeID]float64{1: 1.0, 2: 0.5, 3: 0.25}
	if got := NDCGAtK(scores, ids(1, 2, 3), 3); math.Abs(got-1) > 1e-12 {
		t.Errorf("ideal order NDCG = %g", got)
	}
	worst := NDCGAtK(scores, ids(3, 2, 1), 3)
	if worst >= 1 || worst <= 0 {
		t.Errorf("worst order NDCG = %g, want in (0,1)", worst)
	}
	// Irrelevant items contribute nothing.
	if got := NDCGAtK(scores, ids(9, 8, 7), 3); got != 0 {
		t.Errorf("irrelevant NDCG = %g", got)
	}
	if got := NDCGAtK(nil, ids(1), 3); got != 1 {
		t.Errorf("empty truth NDCG = %g", got)
	}
	if got := NDCGAtK(scores, ids(1), 0); got != 1 {
		t.Errorf("k=0 NDCG = %g", got)
	}
}
