package bench

import (
	"fmt"

	"crashsim/internal/core"
	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// Table2 reproduces Table II: SimRank scores with respect to node A on
// the running-example graph, computed by the Power Method within 1e-5
// error at c = 0.25 (the example's decay factor).
func Table2() (map[string]float64, *Report, error) {
	g := graph.PaperExample()
	// c^k <= 1e-5 at k = 9 for c = 0.25; use a margin.
	res, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.25, Iterations: 20})
	if err != nil {
		return nil, nil, err
	}
	A := graph.PaperNode("A")
	scores := make(map[string]float64, 8)
	rep := &Report{
		Title:   "Table II: SimRank scores with respect to node A (power method, c=0.25)",
		Notes:   []string{"example graph reconstructed from Example 2's constraints; see DESIGN.md"},
		Columns: []string{"node", "sim(A,·)"},
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		label := graph.PaperLabel(v)
		scores[label] = res.Sim(A, v)
		rep.AddRow(label, fmt.Sprintf("%.5f", scores[label]))
	}
	return scores, rep, nil
}

// Table3 reproduces Table III: the dataset inventory. It lists the
// paper's published statistics next to the generated stand-in measured
// at the configured scale.
func Table3(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	rep := &Report{
		Title:   "Table III: datasets (paper statistics vs generated stand-ins)",
		Notes:   []string{fmt.Sprintf("generator scale=%.3g", cfg.Scale)},
		Columns: []string{"dataset", "type", "paper-n", "paper-m", "paper-t", "gen-n", "gen-m", "model"},
	}
	for _, prof := range gen.Profiles() {
		p := prof.Scaled(cfg.Scale)
		seed := rng.SeedString(fmt.Sprintf("table3/%s/%d", p.Name, cfg.Seed))
		g, err := p.Static(seed)
		if err != nil {
			return nil, fmt.Errorf("bench: generating %s: %w", p.Name, err)
		}
		typ := "Directed"
		if !prof.Directed {
			typ = "Undirected"
		}
		rep.AddRow(prof.Name, typ,
			fmt.Sprintf("%d", prof.Nodes), fmt.Sprintf("%d", prof.Edges), fmt.Sprintf("%d", prof.Snapshots),
			fmt.Sprintf("%d", g.NumNodes()), fmt.Sprintf("%d", g.NumEdges()), prof.Model.String())
	}
	return rep, nil
}

// Example2 reproduces the paper's running example (Fig 3): the reverse
// reachable tree of node A at c = 0.25 under the paper's literal
// expansion (non-backtracking, √c/|I(v)| transition), printing each
// level's stop probabilities exactly as in the text.
func Example2() (*Report, error) {
	g := graph.PaperExample()
	tree := core.RevReachNonBacktracking(g, graph.PaperNode("A"), 0.25, 3, core.TransitionPaperLiteral)
	rep := &Report{
		Title:   "Example 2 / Fig 3: reverse reachable tree of A (c=0.25, paper-literal expansion)",
		Columns: []string{"step", "node", "probability"},
	}
	for step := 0; step < tree.NumLevels(); step++ {
		nodes, probs := tree.Level(step)
		for i, v := range nodes {
			rep.AddRow(fmt.Sprintf("%d", step), graph.PaperLabel(v),
				fmt.Sprintf("%.4f", probs[i]))
		}
	}
	walk := []string{"C", "D", "B", "A"}
	sum := 0.0
	for i := 1; i < len(walk); i++ {
		sum += tree.Prob(i, graph.PaperNode(walk[i]))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("crash probability of walk W(C)=(C,D,B,A) against the tree: %.4f (paper: 0.0521)", sum))
	return rep, nil
}
