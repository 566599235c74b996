package bench

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/metrics"
	"crashsim/internal/rng"
	"crashsim/internal/tempq"
)

// AblationEstimator compares CrashSim's design choices on one static
// dataset: the revReach transition rule (exact vs the paper's literal
// formula), the meeting rule (first-meet correction vs Algorithm 1's
// any-meeting sum vs the first-crash heuristic) and the non-backtracking
// tree variant — reporting each configuration's mean ME.
func AblationEstimator(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	prof, err := gen.ProfileByName("wiki-vote")
	if err != nil {
		return nil, err
	}
	p := prof.Scaled(cfg.TemporalScale)
	seed := rng.SeedString(fmt.Sprintf("ablation/%d", cfg.Seed))
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
	sources := cfg.sources("ablation", g, cfg.Sources)

	variants := []struct {
		name string
		mut  func(*core.Params)
	}{
		{"default (exact, first-meet)", func(*core.Params) {}},
		{"meeting=any (Algorithm 1 literal)", func(p *core.Params) { p.Meeting = core.MeetingAny }},
		{"meeting=first-crash", func(p *core.Params) { p.Meeting = core.MeetingFirstCrash }},
		{"transition=paper-literal", func(p *core.Params) { p.Transition = core.TransitionPaperLiteral }},
		{"non-backtracking tree", func(p *core.Params) { p.NonBacktracking = true }},
		{"prefilter=off", func(p *core.Params) { p.DisablePrefilter = true }},
	}

	rep := &Report{
		Title:   "Ablation: CrashSim estimator design choices (wiki-vote stand-in)",
		Notes:   []string{fmt.Sprintf("n=%d sources=%d eps=%g", n, len(sources), cfg.Eps)},
		Columns: []string{"variant", "mean-ME", "mean-time"},
	}
	for _, variant := range variants {
		params := core.Params{
			C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta,
			Iterations: cfg.crashIters(n, cfg.Eps), Seed: seed,
		}
		variant.mut(&params)
		var mes []float64
		var total time.Duration
		for _, u := range sources {
			start := time.Now()
			scores, err := core.SingleSource(g, graph.NodeID(u), nil, params)
			total += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench: ablation %q: %w", variant.name, err)
			}
			mes = append(mes, metrics.MaxError(gt.SingleSource(graph.NodeID(u)), scores))
		}
		rep.AddRow(variant.name, fmt.Sprintf("%.4f", metrics.MeanFloat(mes)),
			(total / time.Duration(len(sources))).Round(10*time.Microsecond).String())
	}
	return rep, nil
}

// AblationPruning measures what each CrashSim-T pruning rule contributes:
// total time and number of candidate evaluations for the trend query on
// an AS-733-shaped history, with both rules, each alone, and neither.
// Pruning may only skip work: it returns an error when a variant's
// result set or final scores differ, bit for bit, from the unpruned
// run's.
func AblationPruning(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	prof, err := gen.ProfileByName("as-733")
	if err != nil {
		return nil, err
	}
	p := prof.Scaled(cfg.Fig7Scale).WithSnapshots(cfg.Snapshots * 4)
	seed := rng.SeedString(fmt.Sprintf("ablation-pruning/%d", cfg.Seed))
	tg, err := p.Temporal(seed)
	if err != nil {
		return nil, err
	}
	n := tg.NumNodes()
	g0, err := tg.Snapshot(0)
	if err != nil {
		return nil, err
	}
	u := graph.NodeID(cfg.sources("ablation-pruning", g0, 1)[0])
	q := tempq.Trend{Direction: tempq.Increasing, Slack: cfg.Eps}
	params := core.Params{
		C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta,
		Iterations: cfg.crashIters(n, cfg.Eps), Seed: seed,
	}

	variants := []struct {
		name string
		opts core.TemporalOptions
	}{
		{"both prunings", core.TemporalOptions{}},
		{"delta only", core.TemporalOptions{DisableDiffPruning: true}},
		{"diff only", core.TemporalOptions{DisableDeltaPruning: true}},
		{"no pruning", core.TemporalOptions{DisableDeltaPruning: true, DisableDiffPruning: true}},
	}
	rep := &Report{
		Title:   "Ablation: CrashSim-T pruning rules (as-733 stand-in, trend query)",
		Notes:   []string{fmt.Sprintf("n=%d snapshots=%d", n, tg.NumSnapshots())},
		Columns: []string{"variant", "total-time", "evaluated", "reused-delta", "reused-diff", "|omega|"},
	}
	results := make([]*core.TemporalResult, len(variants))
	for i, variant := range variants {
		start := time.Now()
		res, err := core.CrashSimT(tg, u, q, params, variant.opts)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench: pruning ablation %q: %w", variant.name, err)
		}
		results[i] = res
		rep.AddRow(variant.name, elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", res.Stats.Evaluated),
			fmt.Sprintf("%d", res.Stats.ReusedDelta),
			fmt.Sprintf("%d", res.Stats.ReusedDiff),
			fmt.Sprintf("%d", len(res.Omega)))
	}
	none := len(variants) - 1
	for i, res := range results[:none] {
		if !sameTemporalResult(res, results[none]) {
			return nil, fmt.Errorf("bench: pruning ablation %q: result differs from %q", variants[i].name, variants[none].name)
		}
	}
	return rep, nil
}

// sameTemporalResult reports whether two CrashSim-T runs kept the same
// candidates with bit-identical final scores.
func sameTemporalResult(a, b *core.TemporalResult) bool {
	return slices.Equal(a.Omega, b.Omega) && maps.EqualFunc(a.Final, b.Final, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}
