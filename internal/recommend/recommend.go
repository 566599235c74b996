// Package recommend operationalizes the paper's Example 1: product
// recommendation over a temporal user–item purchase graph. A temporal
// threshold query (CrashSim-T) finds the users whose SimRank with the
// target stays above θ across the whole interval — the *stable* similar
// group — and the group's purchases, weighted by similarity, become the
// recommendations. Users whose similarity is only momentarily high are
// filtered out, exactly the motivation the paper gives for temporal
// (rather than per-snapshot) SimRank.
package recommend

import (
	"fmt"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/temporal"
)

// Options configures a recommendation query.
type Options struct {
	// NumUsers says how many leading node ids are users; nodes at and
	// above NumUsers are items.
	NumUsers int
	// Theta is the similarity threshold for the stable group.
	// Default 0.05.
	Theta float64
	// K caps the number of recommended items. Default 10.
	K int
	// Params configures the underlying CrashSim-T run.
	Params core.Params
}

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 0.05
	}
	if o.K == 0 {
		o.K = 10
	}
	return o
}

// Recommendation is one recommended item.
type Recommendation struct {
	Item graph.NodeID
	// Weight is the summed similarity of stable-group members who own
	// the item at the final snapshot.
	Weight float64
}

// Result is the outcome of ForUser.
type Result struct {
	// StableUsers are the users whose similarity to the target stayed
	// >= Theta at every snapshot, sorted by id (target excluded).
	StableUsers []graph.NodeID
	// Items are the ranked recommendations.
	Items []Recommendation
}

// thresholdQuery adapts Theta to core.TemporalQuery.
type thresholdQuery struct{ theta float64 }

func (q thresholdQuery) Name() string                    { return "recommend-threshold" }
func (q thresholdQuery) Keep(_ int, _, cur float64) bool { return cur >= q.theta }

// ForUser answers Example 1 for one target user: find the stable
// similar group over the whole history, then rank the items the group
// owns (at the final snapshot) that the target does not.
func ForUser(tg *temporal.Graph, target graph.NodeID, opt Options) (*Result, error) {
	o := opt.withDefaults()
	if o.NumUsers < 1 || o.NumUsers > tg.NumNodes() {
		return nil, fmt.Errorf("recommend: user count %d outside [1, n=%d]", o.NumUsers, tg.NumNodes())
	}
	if target < 0 || int(target) >= o.NumUsers {
		return nil, fmt.Errorf("recommend: target %d is not a user (users are [0,%d))", target, o.NumUsers)
	}
	if o.Theta <= 0 || o.Theta >= 1 {
		return nil, fmt.Errorf("recommend: theta=%g outside (0,1)", o.Theta)
	}

	res, err := core.CrashSimT(tg, target, thresholdQuery{o.Theta}, o.Params, core.TemporalOptions{})
	if err != nil {
		return nil, err
	}
	out := &Result{}
	weights := map[graph.NodeID]float64{}
	for _, v := range res.Omega {
		if v != target && int(v) < o.NumUsers {
			out.StableUsers = append(out.StableUsers, v)
			weights[v] = res.Final[v]
		}
	}

	last, err := tg.Snapshot(tg.NumSnapshots() - 1)
	if err != nil {
		return nil, err
	}
	owned := map[graph.NodeID]bool{}
	for _, it := range neighbors(last, target) {
		owned[it] = true
	}
	scores := map[graph.NodeID]float64{}
	for _, u := range out.StableUsers {
		for _, it := range neighbors(last, u) {
			if int(it) >= o.NumUsers && !owned[it] {
				scores[it] += weights[u]
			}
		}
	}
	// scores holds items only, so excluding the target user skips nothing.
	for _, r := range core.Top(scores, target, o.K) {
		out.Items = append(out.Items, Recommendation{Item: r.Node, Weight: r.Score})
	}
	return out, nil
}

// neighbors returns a user's current items (undirected purchase graph:
// a user's neighbors are exactly its items).
func neighbors(g *graph.Graph, u graph.NodeID) []graph.NodeID {
	return g.In(u)
}
