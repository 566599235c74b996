package core

import (
	"math"

	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// The reference kernel: the original two-pass form of CrashSim's
// Monte-Carlo loop, which samples each walk into a buffer and then
// scores it against the build-time ReachTree with one Prob search per
// step. The fused frozen-tree kernels must reproduce it bit for bit —
// same random stream, same floating-point operation order — and the
// equivalence tests compare the two through legacySingleSource.

// sampleWalk appends to buf a truncated √c-walk starting at v: at every
// step the walk stops with probability 1−√c, otherwise it moves to a
// uniformly chosen in-neighbor; it also stops at nodes without
// in-neighbors and after maxSteps steps. The returned slice holds the
// visited nodes (v first), so it has between 1 and maxSteps+1 elements.
func sampleWalk(g adjacency, v graph.NodeID, sqrtC float64, maxSteps int, r *rng.Source, buf []graph.NodeID) []graph.NodeID {
	buf = append(buf[:0], v)
	cur := v
	for step := 0; step < maxSteps; step++ {
		if r.Float64() >= sqrtC {
			break
		}
		in := g.In(cur)
		if len(in) == 0 {
			break
		}
		cur = in[r.IntN(len(in))]
		buf = append(buf, cur)
	}
	return buf
}

// walkContribution scores one sampled candidate walk against the source
// tree under the configured meeting rule. Position i of the walk
// (0-indexed) is the candidate walk's location after i steps; crashing
// requires the source walk to be at the same node after the same number
// of steps. Position 0 contributes only when the candidate is the
// source, which callers handle directly.
func walkContribution(g *graph.Graph, walk []graph.NodeID, tree *ReachTree, rule MeetingRule, sc float64) float64 {
	sum := 0.0
	switch rule {
	case MeetingAny:
		for i := 1; i < len(walk); i++ {
			sum += tree.Prob(i, walk[i])
		}
	case MeetingFirstCrash:
		for i := 1; i < len(walk); i++ {
			if pr := tree.Prob(i, walk[i]); pr > 0 {
				sum += pr
				break
			}
		}
	default: // MeetingFirstMeet
		// carried is C_i: the probability mass of source walks that met
		// this walk at an earlier position and then followed the walk's
		// own path; it is excluded from later crashes.
		carried := 0.0
		for i := 1; i < len(walk); i++ {
			m := tree.Prob(i, walk[i]) - carried
			if m < 0 {
				m = 0
			}
			sum += m
			if in := g.InDegree(walk[i]); in > 0 {
				carried = (carried + m) * sc / float64(in)
			} else {
				carried = 0
			}
		}
	}
	return sum
}

// estimateCandidate runs the n_r reference walks for one candidate
// against the build-time tree and returns the averaged crash
// probability together with the (possibly grown) walk buffer.
func estimateCandidate(g *graph.Graph, u, v graph.NodeID, p Params, tree *ReachTree, nr int, sqrtC float64, walk []graph.NodeID) (float64, []graph.NodeID) {
	if v == u {
		return 1, walk // sim(u,u) = 1 by definition
	}
	r := rng.Split(p.Seed, uint64(v))
	sum := 0.0
	for k := 0; k < nr; k++ {
		walk = sampleWalk(g, v, sqrtC, p.Lmax, r, walk)
		sum += walkContribution(g, walk, tree, p.Meeting, sqrtC)
	}
	return sum / float64(nr), walk
}

// legacySingleSource is the reference single-source query: every
// candidate of omega (nil means all nodes) through estimateCandidate,
// sequentially and without the zero-score prefilter. The prefilter only
// skips candidates whose walks provably never crash, whose reference
// score is then exactly +0, so it cannot change a bit of the result.
func legacySingleSource(g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params) (Scores, error) {
	tree, q, err := prepare(g, u, p)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if omega == nil {
		omega = make([]graph.NodeID, n)
		for v := range omega {
			omega[v] = graph.NodeID(v)
		}
	}
	nr := q.iterations(n)
	sqrtC := math.Sqrt(q.C)
	scores := make(Scores, len(omega))
	var walk []graph.NodeID
	for _, v := range omega {
		scores[v], walk = estimateCandidate(g, u, v, q, tree, nr, sqrtC, walk)
	}
	return scores, nil
}

// Nodes returns the sorted set of nodes with positive mass at any level
// of t, the build-time counterpart of FrozenTree.SupportNodes.
func (t *ReachTree) Nodes() []graph.NodeID {
	n := 0
	for _, v := range t.nodes {
		n = max(n, int(v)+1)
	}
	seen := newNodeBitset(nil, n)
	for _, v := range t.nodes {
		seen.Add(v)
	}
	return seen.appendNodes(make([]graph.NodeID, 0, len(t.nodes)))
}
