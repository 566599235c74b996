// Package metrics implements the evaluation metrics of Section V:
// the per-query maximum error ME against ground truth, the result-set
// precision used for temporal queries, and the ranking metrics.
package metrics

import (
	"math"

	"crashsim/internal/core"
	"crashsim/internal/graph"
)

// MaxError returns ME = max_v |est(v) − truth[v]| over all nodes. est is
// sparse: nodes absent from it are treated as estimate 0, matching the
// Monte-Carlo methods that only report nodes with positive mass.
func MaxError(truth []float64, est map[graph.NodeID]float64) float64 {
	me := 0.0
	for v, want := range truth {
		got := est[graph.NodeID(v)]
		if d := math.Abs(got - want); d > me {
			me = d
		}
	}
	return me
}

// Precision implements the paper's result-set metric
// |v(k1) ∩ v(k2)| / max(k1, k2), where truthSet is the ground-truth
// result set and gotSet the algorithm's. Two empty sets agree perfectly
// (precision 1).
func Precision(truthSet, gotSet []graph.NodeID) float64 {
	if len(truthSet) == 0 && len(gotSet) == 0 {
		return 1
	}
	in := make(map[graph.NodeID]struct{}, len(truthSet))
	for _, v := range truthSet {
		in[v] = struct{}{}
	}
	inter := 0
	for _, v := range gotSet {
		if _, ok := in[v]; ok {
			inter++
		}
	}
	denom := len(truthSet)
	if len(gotSet) > denom {
		denom = len(gotSet)
	}
	return float64(inter) / float64(denom)
}

// TopK returns the k nodes with the highest scores, ties broken by node
// id, excluding the source itself: the node ids of core.Top. k <= 0
// yields an empty list.
func TopK(scores map[graph.NodeID]float64, source graph.NodeID, k int) []graph.NodeID {
	top := core.Top(scores, source, k)
	out := make([]graph.NodeID, len(top))
	for i, r := range top {
		out[i] = r.Node
	}
	return out
}

// MeanFloat returns the arithmetic mean, or 0 for an empty slice.
func MeanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
