package metrics

import (
	"math"

	"crashsim/internal/graph"
)

// PrecisionAtK returns |top-k(est) ∩ top-k(truth)| / k, the standard
// top-k quality metric of the SimRank literature.
func PrecisionAtK(truth, est []graph.NodeID, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(truth) {
		k = len(truth)
	}
	if k == 0 {
		return 1
	}
	in := make(map[graph.NodeID]struct{}, k)
	for _, v := range truth[:k] {
		in[v] = struct{}{}
	}
	limit := k
	if limit > len(est) {
		limit = len(est)
	}
	hits := 0
	for _, v := range est[:limit] {
		if _, ok := in[v]; ok {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// NDCGAtK returns the normalized discounted cumulative gain of the
// estimated ranking against graded relevance given by the true scores:
// a ranking that puts high-truth items first scores 1. Returns 1 for an
// empty or all-zero truth.
func NDCGAtK(truthScores map[graph.NodeID]float64, est []graph.NodeID, k int) float64 {
	if k <= 0 || len(truthScores) == 0 {
		return 1
	}
	dcg := 0.0
	limit := k
	if limit > len(est) {
		limit = len(est)
	}
	for i := 0; i < limit; i++ {
		dcg += truthScores[est[i]] / math.Log2(float64(i)+2)
	}
	// Ideal ordering: truth scores descending.
	ideal := make([]float64, 0, len(truthScores))
	for _, s := range truthScores {
		ideal = append(ideal, s)
	}
	// Partial selection of the k largest.
	for i := 0; i < k && i < len(ideal); i++ {
		max := i
		for j := i + 1; j < len(ideal); j++ {
			if ideal[j] > ideal[max] {
				max = j
			}
		}
		ideal[i], ideal[max] = ideal[max], ideal[i]
	}
	idcg := 0.0
	for i := 0; i < k && i < len(ideal); i++ {
		idcg += ideal[i] / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 1
	}
	return dcg / idcg
}
