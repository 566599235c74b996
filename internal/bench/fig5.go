package bench

import (
	"context"
	"fmt"
	"time"

	"crashsim/internal/engine"
	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/metrics"
	"crashsim/internal/rng"
)

// Fig5Result is one measured cell of Fig 5: an algorithm's mean response
// time and mean max-error on one dataset.
type Fig5Result struct {
	Dataset   string
	Algorithm string
	MeanTime  time.Duration
	MeanME    float64
}

// Fig5 reproduces the paper's Fig 5: single-source response time and
// maximum error ME on each static dataset for CrashSim at each ε, versus
// ProbeSim, SLING and READS — all dispatched through the engine registry
// (index time included in response time, as in the paper). Ground truth
// is the Power Method.
func Fig5(cfg Config) ([]Fig5Result, *Report, error) {
	cfg = cfg.WithDefaults()
	ctx := context.Background()
	work := StartWork()
	var results []Fig5Result
	for _, prof := range gen.Profiles() {
		p := prof.Scaled(cfg.Scale)
		seed := rng.SeedString(fmt.Sprintf("fig5/%s/%d", p.Name, cfg.Seed))
		g, err := p.Static(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: generating %s: %w", p.Name, err)
		}
		n := g.NumNodes()
		gt, err := exact.PowerMethod(g, exact.PowerOptions{
			C: cfg.C, Iterations: cfg.GroundTruthIters, MaxNodes: -1, Workers: cfg.GTWorkers,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: ground truth for %s: %w", p.Name, err)
		}
		sources := cfg.sources("fig5/"+p.Name, g, cfg.Sources)

		// CrashSim at each ε.
		for _, eps := range cfg.Epsilons {
			res, err := measureEngine(ctx, p.Name, fmt.Sprintf("crashsim(eps=%g)", eps),
				"crashsim", g, cfg.familyConfig("crashsim", n, eps, seed), sources, gt)
			if err != nil {
				return nil, nil, err
			}
			results = append(results, res)
		}

		// The three baseline families at the default ε.
		for _, family := range []string{"probesim", "sling", "reads"} {
			res, err := measureEngine(ctx, p.Name, family,
				family, g, cfg.familyConfig(family, n, cfg.Eps, seed), sources, gt)
			if err != nil {
				return nil, nil, err
			}
			results = append(results, res)
		}
	}

	rep := &Report{
		Title: "Fig 5: single-source response time and max error (static datasets)",
		Notes: []string{
			fmt.Sprintf("scale=%.3g sources=%d iter-scale=%.3g c=%.2g (index build included for sling/reads)",
				cfg.Scale, cfg.Sources, cfg.IterScale, cfg.C),
		},
		Columns: []string{"dataset", "algorithm", "mean-time", "mean-ME"},
	}
	for _, r := range results {
		rep.AddRow(r.Dataset, r.Algorithm, r.MeanTime.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%.4f", r.MeanME))
	}
	rep.Footer = append(rep.Footer, work.Lines()...)
	return results, rep, nil
}

// familyConfig maps one paper family to its engine.Config on a graph of
// n nodes, reproducing the per-family seeds (seed, +1, +2, +3) and
// iteration counts the reports have always used.
func (c Config) familyConfig(family string, n int, eps float64, seed uint64) engine.Config {
	ec := engine.Config{C: c.C, Eps: eps, Delta: c.Delta}
	switch family {
	case "crashsim":
		ec.Iterations = c.crashIters(n, eps)
		ec.Seed = seed
	case "probesim":
		ec.Iterations = c.probeIters(n, eps)
		ec.Seed = seed + 1
	case "sling":
		ec.SlingDSamples = c.SlingDSamples
		ec.Seed = seed + 2
	case "reads":
		ec.ReadsR = c.ReadsR
		ec.ReadsRQ = c.ReadsRQ
		ec.Seed = seed + 3
	default:
		panic(fmt.Sprintf("bench: no familyConfig for %q", family))
	}
	return ec
}

// measureEngine builds one backend through the registry and measures it
// over all sources, charging the build (the index, for indexed families)
// into the mean response time — the paper's accounting.
func measureEngine(ctx context.Context, dataset, label, family string, g *graph.Graph,
	ec engine.Config, sources []int32, gt *exact.Result) (Fig5Result, error) {
	buildStart := time.Now()
	est, err := engine.New(ctx, family, g, ec)
	if err != nil {
		return Fig5Result{}, fmt.Errorf("bench: building %s on %s: %w", family, dataset, err)
	}
	build := time.Since(buildStart)
	res, err := measure(dataset, label, sources, gt,
		func(u graph.NodeID) (map[graph.NodeID]float64, error) {
			s, err := est.SingleSource(ctx, u, nil)
			return map[graph.NodeID]float64(s), err
		})
	if err != nil {
		return Fig5Result{}, err
	}
	res.MeanTime += build
	return res, nil
}

// measure runs one algorithm over all sources, timing each query and
// computing its ME against ground truth.
func measure(dataset, algo string, sources []int32, gt *exact.Result,
	run func(u graph.NodeID) (map[graph.NodeID]float64, error)) (Fig5Result, error) {
	var total time.Duration
	var mes []float64
	for _, u := range sources {
		start := time.Now()
		scores, err := run(graph.NodeID(u))
		total += time.Since(start)
		if err != nil {
			return Fig5Result{}, fmt.Errorf("bench: %s on %s (source %d): %w", algo, dataset, u, err)
		}
		mes = append(mes, metrics.MaxError(gt.SingleSource(graph.NodeID(u)), scores))
	}
	return Fig5Result{
		Dataset:   dataset,
		Algorithm: algo,
		MeanTime:  total / time.Duration(len(sources)),
		MeanME:    metrics.MeanFloat(mes),
	}, nil
}
