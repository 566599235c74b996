package core

import (
	"context"
	"math"

	"crashsim/internal/graph"
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
// error. It is a view over the one estimate path: the same query with a
// Σx² window next to the score window, so the Score fields match
// SingleSource bit-for-bit and the variance comes straight out of the
// fused walk kernel.
func SingleSourceWithError(g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params) (map[graph.NodeID]Estimate, error) {
	tree, q, nr, err := prepare(g, u, p)
	if err != nil {
		return nil, err
	}
	defer treePool.Put(tree)
	n := g.NumNodes()
	a := acquireArena(2, 1, n)
	defer a.release()
	a.addSource(g, u, tree, a.window(0, n), a.window(1, n))
	cand, err := a.sample(context.Background(), g, omega, q, nr)
	if err != nil {
		return nil, err
	}
	pr := a.preps[0]
	out := make(map[graph.NodeID]Estimate, len(cand))
	for _, v := range cand {
		// The source and pruned candidates sample nothing: their Σx² is
		// 0, so the variance term is not positive and StdErr stays 0.
		mean := pr.dense[v]
		est := Estimate{Score: mean}
		if nr > 1 {
			variance := (pr.sq[v] - float64(nr)*mean*mean) / float64(nr-1)
			if variance > 0 {
				est.StdErr = math.Sqrt(variance / float64(nr))
			}
		}
		out[v] = est
	}
	return out, nil
}
