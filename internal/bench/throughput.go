package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// ThroughputResult is one (dataset, batch size) row of the batched
// multi-source pipeline comparison: the same Zipf-skewed source list
// answered by core.MultiSource in one call versus a sequential loop of
// SingleSourceCtx queries with identical parameters. Both sides produce
// bit-identical scores (verified before timing), so the columns differ
// only in dispatch: the batch compiles each unique source once and
// shares one scratch arena and one fan-out, while the sequential loop
// pays per query — duplicates included, which is what an unbatched
// server does with a skewed query log. UniqueSources makes the dedup
// contribution transparent.
type ThroughputResult struct {
	Dataset       string  `json:"dataset"`
	Nodes         int     `json:"nodes"`
	Edges         int     `json:"edges"`
	Iterations    int     `json:"iterations"`
	Batch         int     `json:"batch"`
	UniqueSources int     `json:"unique_sources"`
	Workers       int     `json:"workers"`
	SequentialQPS float64 `json:"sequential_qps"`
	BatchQPS      float64 `json:"batch_qps"`
	Speedup       float64 `json:"speedup"`
}

// ThroughputComparison is the `batch` section of BENCH_crashsim.json.
type ThroughputComparison struct {
	Config         string             `json:"config"`
	Results        []ThroughputResult `json:"results"`
	GeoMeanSpeedup float64            `json:"geomean_speedup"`
}

// Throughput measures batch-vs-sequential query throughput on every
// default synthetic profile at each configured batch size. Sources are
// drawn rank-Zipf (Config.ZipfS) from the giant component, repeats
// kept; timing is paired best-of-throughputTimingReps with alternating
// order (see timeBatchPaired), and QPS counts answered queries (the full
// batch length) per wall second.
func Throughput(cfg Config) (*ThroughputComparison, *Report, error) {
	cfg = cfg.WithDefaults()
	work := StartWork()
	cmp := &ThroughputComparison{
		Config: fmt.Sprintf("scale=%.3g batches=%v zipf-s=%g eps=%g iter-scale=%.3g c=%.2g seed=%d",
			cfg.Scale, cfg.BatchSizes, cfg.ZipfS, cfg.Eps, cfg.IterScale, cfg.C, cfg.Seed),
	}
	for _, prof := range gen.Profiles() {
		p := prof.Scaled(cfg.Scale)
		seed := rng.SeedString(fmt.Sprintf("throughput/%s/%d", p.Name, cfg.Seed))
		g, err := p.Static(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: generating %s: %w", p.Name, err)
		}
		n := g.NumNodes()
		iters := cfg.crashIters(n, cfg.Eps)
		params := core.Params{C: cfg.C, Iterations: iters, Seed: seed}
		pool := graph.GiantComponent(g)
		if len(pool) == 0 {
			pool = make([]graph.NodeID, n)
			for v := range pool {
				pool[v] = graph.NodeID(v)
			}
		}
		for _, batch := range cfg.BatchSizes {
			sources, err := gen.ZipfSources(pool, batch, cfg.ZipfS,
				rng.SeedString(fmt.Sprintf("throughput/%s/batch=%d/%d", p.Name, batch, cfg.Seed)))
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s: %w", p.Name, err)
			}
			// The warm-up run doubles as the equivalence check: the batch
			// must reproduce sequential scores bit for bit before its
			// timings are trusted.
			unique, err := verifyBatch(g, sources, params)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s batch=%d: %w", p.Name, batch, err)
			}
			seqSec, batchSec, err := timeBatchPaired(g, sources, params)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s batch=%d: %w", p.Name, batch, err)
			}
			cmp.Results = append(cmp.Results, ThroughputResult{
				Dataset:       p.Name,
				Nodes:         n,
				Edges:         g.NumEdges(),
				Iterations:    iters,
				Batch:         batch,
				UniqueSources: unique,
				Workers:       max(params.Workers, 1),
				SequentialQPS: float64(batch) / seqSec,
				BatchQPS:      float64(batch) / batchSec,
				Speedup:       seqSec / batchSec,
			})
		}
	}

	logSum := 0.0
	for _, r := range cmp.Results {
		logSum += math.Log(r.Speedup)
	}
	cmp.GeoMeanSpeedup = math.Exp(logSum / float64(len(cmp.Results)))

	rep := &Report{
		Title: "Multi-source batch pipeline: one batched call vs a sequential query loop",
		Notes: []string{cmp.Config,
			"Zipf-skewed sources, repeats kept; scores verified bit-identical before timing"},
		Columns: []string{"dataset", "n", "batch", "unique", "seq-qps", "batch-qps", "speedup"},
	}
	for _, r := range cmp.Results {
		rep.AddRow(r.Dataset, fmt.Sprint(r.Nodes), fmt.Sprint(r.Batch), fmt.Sprint(r.UniqueSources),
			fmt.Sprintf("%.2f", r.SequentialQPS), fmt.Sprintf("%.2f", r.BatchQPS),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	rep.Footer = append(rep.Footer, fmt.Sprintf("geomean speedup: %.2fx", cmp.GeoMeanSpeedup))
	rep.Footer = append(rep.Footer, work.Lines()...)
	return cmp, rep, nil
}

// verifyBatch runs the batch once (doubling as the warm-up for both
// code paths' scratch pools), checks it against sequential queries bit
// for bit, and returns the number of unique sources in the batch.
func verifyBatch(g *graph.Graph, sources []graph.NodeID, p core.Params) (int, error) {
	got, err := core.MultiSource(context.Background(), g, sources, nil, p)
	if err != nil {
		return 0, err
	}
	seen := make(map[graph.NodeID]struct{}, len(sources))
	for i, u := range sources {
		seen[u] = struct{}{}
		want, err := core.SingleSourceCtx(context.Background(), g, u, nil, p)
		if err != nil {
			return 0, err
		}
		if len(got[i]) != len(want) {
			return 0, fmt.Errorf("batch mismatch at source %d: %d vs %d entries", u, len(got[i]), len(want))
		}
		for v, s := range want {
			if math.Float64bits(got[i][v]) != math.Float64bits(s) {
				return 0, fmt.Errorf("batch mismatch at source %d node %d: batch %v vs sequential %v", u, v, got[i][v], s)
			}
		}
	}
	return len(seen), nil
}

// throughputTimingReps is how many times each side is repeated; the
// fastest repetition is kept. Queries are deterministic, so
// repetitions differ only by scheduler and frequency noise.
const throughputTimingReps = 3

// timeBatchPaired times one batched MultiSource call against a
// sequential SingleSourceCtx loop over the same sources and keeps each
// side's best repetition. Pairing the runs — and alternating which side
// goes first each repetition — spreads slow machine drift (frequency
// scaling, noisy neighbors) evenly over both columns.
func timeBatchPaired(g *graph.Graph, sources []graph.NodeID, p core.Params) (seqSec, batchSec float64, err error) {
	ctx := context.Background()
	sequential := func() (float64, error) {
		start := time.Now()
		for _, u := range sources {
			if _, err := core.SingleSourceCtx(ctx, g, u, nil, p); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
	batched := func() (float64, error) {
		start := time.Now()
		_, err := core.MultiSource(ctx, g, sources, nil, p)
		return time.Since(start).Seconds(), err
	}
	bestS, bestB := math.Inf(1), math.Inf(1)
	for rep := 0; rep < throughputTimingReps; rep++ {
		a, b := sequential, batched
		if rep&1 == 1 {
			a, b = b, a
		}
		ta, err := a()
		if err != nil {
			return 0, 0, err
		}
		tb, err := b()
		if err != nil {
			return 0, 0, err
		}
		if rep&1 == 1 {
			ta, tb = tb, ta
		}
		bestS = math.Min(bestS, ta)
		bestB = math.Min(bestB, tb)
	}
	return bestS, bestB, nil
}
