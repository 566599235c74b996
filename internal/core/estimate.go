package core

import (
	"context"
	"fmt"
	"math"

	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// Estimate is a SimRank score with its Monte-Carlo uncertainty.
type Estimate struct {
	// Score is the mean crash probability over the n_r iterations.
	Score float64
	// StdErr is the sample standard error of Score: the standard
	// deviation of per-iteration contributions divided by √n_r. An
	// approximate 95% confidence interval is Score ± 2·StdErr (the
	// theory bound of Theorem 1 is looser but holds with certainty
	// 1−δ; StdErr reflects the realized variance).
	StdErr float64
}

// SingleSourceWithError is SingleSource with per-node uncertainty: it
// returns, for each candidate, both the estimate and its standard
// error, using exactly the same random streams as SingleSource (the
// Score fields match SingleSource bit-for-bit). Like SingleSource it
// runs against the compiled frozen tree; the per-walk contributions it
// needs for the variance come straight out of the fused kernels.
func SingleSourceWithError(g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params) (map[graph.NodeID]Estimate, error) {
	tree, q, err := prepare(g, u, p)
	if err != nil {
		return nil, err
	}
	pooled := !q.DisablePooling
	defer releaseTree(tree, pooled)
	n := g.NumNodes()
	if omega == nil {
		omega = make([]graph.NodeID, n)
		for v := range omega {
			omega[v] = graph.NodeID(v)
		}
	}
	for _, v := range omega {
		if v < 0 || int(v) >= n {
			return nil, outOfRangeCandidate(v, n)
		}
	}
	nr := q.iterations(n)
	out := make(map[graph.NodeID]Estimate, len(omega))

	ft := freeze(g, tree, q)
	defer releaseFrozen(ft, pooled)

	reach := newNodeBitset(nil, n)
	forwardReachBits(g, ft.SupportNodes(), q.Lmax, reach, nil, nil)

	sqrtC := math.Sqrt(q.C)
	for _, v := range omega {
		if v == u {
			out[v] = Estimate{Score: 1}
			continue
		}
		if !reach.Has(v) || g.InDegree(v) == 0 {
			out[v] = Estimate{} // provably zero, no sampling noise
			continue
		}
		r := rng.FastSplit(q.Seed, uint64(v))
		sum, sumSq, _, err := runKernel(context.Background(), q.Meeting, g, ft, v, sqrtC, q.Lmax, nr, &r)
		if err != nil {
			return nil, err
		}
		mean := sum / float64(nr)
		est := Estimate{Score: mean}
		if nr > 1 {
			variance := (sumSq - float64(nr)*mean*mean) / float64(nr-1)
			if variance > 0 {
				est.StdErr = math.Sqrt(variance / float64(nr))
			}
		}
		out[v] = est
	}
	return out, nil
}

func outOfRangeCandidate(v graph.NodeID, n int) error {
	return fmt.Errorf("core: candidate %d out of range for n=%d", v, n)
}
