package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// KernelResult is one dataset row of the crash-kernel before/after
// comparison: the same single-source CrashSim queries (same seeds, same
// iteration budgets) timed against the legacy kernel
// (Params.DisableFrozenKernel) and the compiled frozen-tree kernel that
// is now the default. Scores are verified bit-identical before the rows
// are trusted, so the two columns differ only in implementation.
type KernelResult struct {
	Dataset    string  `json:"dataset"`
	Nodes      int     `json:"nodes"`
	Edges      int     `json:"edges"`
	Iterations int     `json:"iterations"`
	Sources    int     `json:"sources"`
	LegacyMS   float64 `json:"legacy_ms_per_query"`
	FrozenMS   float64 `json:"frozen_ms_per_query"`
	Speedup    float64 `json:"speedup"`
}

// KernelComparison is the machine-readable payload behind
// BENCH_crashsim.json: one row per default synthetic profile plus the
// geometric-mean speedup, so the repo's perf trajectory across PRs can
// be diffed by tooling instead of eyeballed from prose.
type KernelComparison struct {
	Config         string         `json:"config"`
	Results        []KernelResult `json:"results"`
	GeoMeanSpeedup float64        `json:"geomean_speedup"`
	// Temporal is the CrashSim-T incremental-pipeline section
	// (TemporalKernel); nil when only the static kernel ran.
	Temporal *TemporalComparison `json:"temporal,omitempty"`
	// Batch is the multi-source throughput section (Throughput); nil
	// when the throughput experiment did not run.
	Batch *ThroughputComparison `json:"batch,omitempty"`
	// Store is the index-snapshot cold-build vs warm-load section
	// (Store); nil when the store experiment did not run.
	Store *StoreComparison `json:"store,omitempty"`
	// PRSim is the hub-index skeleton-vs-compiled section (PRSim); nil
	// when that experiment did not run.
	PRSim *PRSimComparison `json:"prsim,omitempty"`
}

// WriteJSON renders the comparison as indented JSON.
func (k *KernelComparison) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(k)
}

// Kernel measures the single-source crash kernel before/after compiling
// the reverse-reachable tree: every default synthetic profile, the
// theory-derived iteration budget (scaled by IterScale, as everywhere in
// the harness), legacy and frozen kernels on identical queries. Queries
// run single-threaded, like every measured algorithm in the harness.
func Kernel(cfg Config) (*KernelComparison, *Report, error) {
	cfg = cfg.WithDefaults()
	work := StartWork()
	cmp := &KernelComparison{
		Config: fmt.Sprintf("scale=%.3g sources=%d eps=%g iter-scale=%.3g c=%.2g seed=%d",
			cfg.Scale, cfg.Sources, cfg.Eps, cfg.IterScale, cfg.C, cfg.Seed),
	}
	for _, prof := range gen.Profiles() {
		p := prof.Scaled(cfg.Scale)
		seed := rng.SeedString(fmt.Sprintf("kernel/%s/%d", p.Name, cfg.Seed))
		g, err := p.Static(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: generating %s: %w", p.Name, err)
		}
		n := g.NumNodes()
		iters := cfg.crashIters(n, cfg.Eps)
		frozen := core.Params{C: cfg.C, Iterations: iters, Seed: seed}
		legacy := frozen
		legacy.DisableFrozenKernel = true
		sources := cfg.sources("kernel/"+p.Name, g, cfg.Sources)

		// One untimed query per variant primes the scratch pools, so the
		// timed queries measure steady state on both sides.
		if err := verifyKernels(g, graph.NodeID(sources[0]), legacy, frozen); err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", p.Name, err)
		}
		legacySec, frozenSec, err := timeQueriesPaired(g, sources, legacy, frozen)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", p.Name, err)
		}
		cmp.Results = append(cmp.Results, KernelResult{
			Dataset:    p.Name,
			Nodes:      n,
			Edges:      g.NumEdges(),
			Iterations: iters,
			Sources:    len(sources),
			LegacyMS:   legacySec / float64(len(sources)) * 1e3,
			FrozenMS:   frozenSec / float64(len(sources)) * 1e3,
			Speedup:    legacySec / frozenSec,
		})
	}

	logSum := 0.0
	for _, r := range cmp.Results {
		logSum += math.Log(r.Speedup)
	}
	cmp.GeoMeanSpeedup = math.Exp(logSum / float64(len(cmp.Results)))

	rep := &Report{
		Title:   "Crash kernel before/after: legacy kernel vs compiled frozen tree",
		Notes:   []string{cmp.Config, "identical queries and seeds; scores verified bit-identical"},
		Columns: []string{"dataset", "n", "m", "n_r", "legacy-ms/q", "frozen-ms/q", "speedup"},
	}
	for _, r := range cmp.Results {
		rep.AddRow(r.Dataset, fmt.Sprint(r.Nodes), fmt.Sprint(r.Edges), fmt.Sprint(r.Iterations),
			fmt.Sprintf("%.2f", r.LegacyMS), fmt.Sprintf("%.2f", r.FrozenMS),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	rep.Footer = append(rep.Footer, fmt.Sprintf("geomean speedup: %.2fx", cmp.GeoMeanSpeedup))
	rep.Footer = append(rep.Footer, work.Lines()...)
	return cmp, rep, nil
}

// verifyKernels runs one query through both kernels (doubling as the
// pool warm-up) and fails unless every score matches bit for bit.
func verifyKernels(g *graph.Graph, u graph.NodeID, legacy, frozen core.Params) error {
	want, err := core.SingleSource(g, u, nil, legacy)
	if err != nil {
		return err
	}
	got, err := core.SingleSource(g, u, nil, frozen)
	if err != nil {
		return err
	}
	for v, s := range want {
		if math.Float64bits(got[v]) != math.Float64bits(s) {
			return fmt.Errorf("kernel mismatch at source %d node %d: frozen %v vs legacy %v", u, v, got[v], s)
		}
	}
	return nil
}

// kernelTimingReps is how many times each (source, variant) query is
// repeated; the fastest repetition is kept. Queries are deterministic,
// so repetitions differ only by scheduler and frequency noise — the
// minimum is the cleanest estimate of the query's true cost.
const kernelTimingReps = 3

// timeQueriesPaired times the two kernel variants back to back for each
// source and returns each variant's total wall time, taking the best of
// kernelTimingReps repetitions per query. Pairing the runs — and
// alternating which variant goes first each repetition — spreads slow
// machine drift (frequency scaling, noisy neighbors) evenly over both
// columns, where timing one full variant block after the other would
// charge the drift to whichever side ran later.
func timeQueriesPaired(g *graph.Graph, sources []int32, legacy, frozen core.Params) (legacySec, frozenSec float64, err error) {
	one := func(u int32, p core.Params) (float64, error) {
		start := time.Now()
		_, err := core.SingleSource(g, graph.NodeID(u), nil, p)
		return time.Since(start).Seconds(), err
	}
	for _, u := range sources {
		bestL, bestF := math.Inf(1), math.Inf(1)
		for rep := 0; rep < kernelTimingReps; rep++ {
			a, b := legacy, frozen
			if rep&1 == 1 {
				a, b = frozen, legacy
			}
			ta, err := one(u, a)
			if err != nil {
				return 0, 0, err
			}
			tb, err := one(u, b)
			if err != nil {
				return 0, 0, err
			}
			if rep&1 == 1 {
				ta, tb = tb, ta
			}
			bestL = math.Min(bestL, ta)
			bestF = math.Min(bestF, tb)
		}
		legacySec += bestL
		frozenSec += bestF
	}
	return legacySec, frozenSec, nil
}
