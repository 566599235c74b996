package tempq

import (
	"context"
	"fmt"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/temporal"
)

// Band keeps nodes whose similarity to the source stays inside
// [Low, High] at every snapshot — a stability query: the relationship
// neither decays below Low nor spikes above High. It generalizes
// Threshold (Band{Low: θ, High: 1}).
type Band struct {
	Low, High float64
}

// Name implements Query.
func (b Band) Name() string { return fmt.Sprintf("band-%.3f-%.3f", b.Low, b.High) }

// Keep implements Query.
func (b Band) Keep(_ int, _ /* prev */, cur float64) bool {
	return cur >= b.Low && cur <= b.High
}

// keepAll never filters; it powers aggregate scans like DurableTopK.
type keepAll struct{}

func (keepAll) Name() string                    { return "keep-all" }
func (keepAll) Keep(int, float64, float64) bool { return true }

// DurableResult is one answer of a durable top-k query.
type DurableResult struct {
	Node graph.NodeID
	// MinScore is the node's minimum similarity to the source across
	// the whole interval — the durability value being ranked.
	MinScore float64
}

// DurableTopK answers the durable top-k similarity query inspired by
// the durable-pattern queries the paper cites ([15], Semertzidis &
// Pitoura): the k nodes whose *minimum* similarity to the source across
// the entire interval is highest — the most persistently similar nodes,
// not merely the most similar right now. It reuses CrashSim-T's
// snapshot machinery (including delta pruning) via the observer hook,
// tracking each node's running minimum.
func DurableTopK(tg *temporal.Graph, u graph.NodeID, k int, p core.Params, topt core.TemporalOptions) ([]DurableResult, error) {
	return DurableTopKCtx(context.Background(), tg, u, k, p, topt)
}

// DurableTopKCtx is DurableTopK with cancellation, forwarded into the
// underlying CrashSim-T run.
func DurableTopKCtx(ctx context.Context, tg *temporal.Graph, u graph.NodeID, k int, p core.Params, topt core.TemporalOptions) ([]DurableResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("tempq: durable top-k needs k >= 1, got %d", k)
	}
	min := make(map[graph.NodeID]float64)
	topt.Observer = func(t int, scores core.Scores) {
		observeMin(min, t, scores)
	}
	if _, err := core.CrashSimTCtx(ctx, tg, u, keepAll{}, p, topt); err != nil {
		return nil, err
	}
	top := core.Top(min, u, k)
	out := make([]DurableResult, len(top))
	for i, r := range top {
		out[i] = DurableResult{Node: r.Node, MinScore: r.Score}
	}
	return out, nil
}

// observeMin folds one snapshot's scores into the per-node running
// minima. A node tracked since t=0 but missing from a later snapshot's
// score map has similarity 0 there — a disconnected node is maximally
// non-durable — so absence lowers the minimum to 0 rather than quietly
// preserving the stale t=0 value. (Iterating the tracked set, not the
// snapshot's map, is what makes absence count.)
func observeMin(min map[graph.NodeID]float64, t int, scores core.Scores) {
	if t == 0 {
		for v, s := range scores {
			min[v] = s
		}
		return
	}
	for v := range min {
		if s := scores[v]; s < min[v] {
			min[v] = s
		}
	}
}
