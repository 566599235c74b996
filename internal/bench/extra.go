package bench

import (
	"context"
	"fmt"
	"time"

	"crashsim/internal/engine"
	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/linsim"
	"crashsim/internal/prsim"
	"crashsim/internal/rng"
	"crashsim/internal/tsf"
)

// Extra runs the extended single-source comparison beyond the paper's
// Fig 5 lineup: the four engine-dispatched paper families plus the TSF
// one-way-graph index (related work [16]), the classic Fogaras pairwise
// Monte-Carlo method, PRSim and the linearized solver — on one dataset,
// reporting mean response time (index build included for the indexed
// methods) and mean ME.
func Extra(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	ctx := context.Background()
	prof, err := gen.ProfileByName("wiki-vote")
	if err != nil {
		return nil, err
	}
	p := prof.Scaled(cfg.TemporalScale)
	seed := rng.SeedString(fmt.Sprintf("extra/%d", cfg.Seed))
	g, err := p.Static(seed)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	gt, err := exact.PowerMethod(g, exact.PowerOptions{
		C: cfg.C, Iterations: cfg.GroundTruthIters, MaxNodes: -1, Workers: cfg.GTWorkers,
	})
	if err != nil {
		return nil, err
	}
	sources := cfg.sources("extra", g, cfg.Sources)

	type algo struct {
		name  string
		build func() (func(u graph.NodeID) (map[graph.NodeID]float64, error), error)
	}
	// The paper families go through the engine registry; the extras keep
	// their direct constructors (they are not part of the unified lineup).
	engineAlgo := func(family string) algo {
		return algo{family, func() (func(graph.NodeID) (map[graph.NodeID]float64, error), error) {
			est, err := engine.New(ctx, family, g, cfg.familyConfig(family, n, cfg.Eps, seed))
			if err != nil {
				return nil, err
			}
			return func(u graph.NodeID) (map[graph.NodeID]float64, error) {
				s, err := est.SingleSource(ctx, u, nil)
				return map[graph.NodeID]float64(s), err
			}, nil
		}}
	}
	algos := []algo{
		engineAlgo("crashsim"),
		engineAlgo("probesim"),
		engineAlgo("sling"),
		engineAlgo("reads"),
		{"tsf", func() (func(graph.NodeID) (map[graph.NodeID]float64, error), error) {
			ix, err := tsf.Build(g, tsf.Options{C: cfg.C, Rg: cfg.ReadsR, Seed: seed + 4})
			if err != nil {
				return nil, err
			}
			return ix.SingleSource, nil
		}},
		{"fogaras-mc", func() (func(graph.NodeID) (map[graph.NodeID]float64, error), error) {
			o := exact.PairMCOptions{C: cfg.C, Trials: cfg.crashIters(n, cfg.Eps), Seed: seed + 5}
			return func(u graph.NodeID) (map[graph.NodeID]float64, error) {
				return exact.MCSingleSource(g, u, o)
			}, nil
		}},
		{"prsim", func() (func(graph.NodeID) (map[graph.NodeID]float64, error), error) {
			ix, err := prsim.Build(g, prsim.Options{
				C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta, HubFraction: 0.05,
				Iterations: cfg.crashIters(n, cfg.Eps), DSamples: cfg.SlingDSamples, Seed: seed + 7,
			})
			if err != nil {
				return nil, err
			}
			return ix.SingleSource, nil
		}},
		{"linsim", func() (func(graph.NodeID) (map[graph.NodeID]float64, error), error) {
			s, err := linsim.New(g, linsim.Options{C: cfg.C, Eps: cfg.Eps, DSamples: cfg.SlingDSamples, Seed: seed + 6})
			if err != nil {
				return nil, err
			}
			return func(u graph.NodeID) (map[graph.NodeID]float64, error) {
				col, err := s.SingleSource(u)
				if err != nil {
					return nil, err
				}
				out := make(map[graph.NodeID]float64, len(col))
				for v, sc := range col {
					if sc != 0 {
						out[graph.NodeID(v)] = sc
					}
				}
				return out, nil
			}, nil
		}},
	}

	rep := &Report{
		Title: "Extra: extended single-source comparison (wiki-vote stand-in)",
		Notes: []string{
			fmt.Sprintf("n=%d sources=%d eps=%g (index build included where applicable)", n, len(sources), cfg.Eps),
			"tsf, fogaras-mc, prsim and linsim are beyond the paper's Fig 5 lineup; see DESIGN.md",
		},
		Columns: []string{"algorithm", "mean-time", "mean-ME"},
	}
	for _, a := range algos {
		buildStart := time.Now()
		run, err := a.build()
		if err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", a.name, err)
		}
		buildTime := time.Since(buildStart)
		res, err := measure("wiki-vote", a.name, sources, gt, run)
		if err != nil {
			return nil, err
		}
		res.MeanTime += buildTime
		rep.AddRow(a.name, res.MeanTime.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%.4f", res.MeanME))
	}
	return rep, nil
}
