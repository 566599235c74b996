// Benchmarks regenerating each table and figure of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index). Each
// benchmark wraps the corresponding internal/bench runner at a reduced
// scale so `go test -bench=.` completes in minutes; cmd/repro runs the
// same runners with configurable (larger) scales and prints the tables.
package crashsim_test

import (
	"testing"

	"crashsim/internal/bench"
)

// benchConfig is the shared reduced-scale configuration. Results are
// deterministic for a given seed, so iterations measure stable work.
func benchConfig() bench.Config {
	return bench.Config{
		Scale:            0.02,
		TemporalScale:    0.01,
		Fig7Scale:        0.01,
		Sources:          3,
		Snapshots:        4,
		Fig7Snapshots:    []int{10, 20},
		GroundTruthIters: 30,
		SlingDSamples:    60,
		ReadsR:           60,
		Seed:             1,
	}
}

// BenchmarkTable2PowerMethod regenerates Table II: exact SimRank scores
// with respect to node A on the running-example graph.
func BenchmarkTable2PowerMethod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Generate regenerates Table III: the five dataset
// stand-ins with their measured sizes.
func BenchmarkTable3Generate(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Fig 5: single-source response time and max
// error for CrashSim (ε sweep) vs ProbeSim, SLING and READS on the five
// static datasets.
func BenchmarkFig5(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates Fig 6: precision of temporal trend and
// threshold queries across engines.
func BenchmarkFig6(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Fig 7: total response time of the temporal
// trend query as the query interval grows.
func BenchmarkFig7(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEstimator regenerates the estimator design ablation
// (transition rule, meeting rule, non-backtracking tree).
func BenchmarkAblationEstimator(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationEstimator(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPruning regenerates the CrashSim-T pruning ablation.
func BenchmarkAblationPruning(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationPruning(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtra regenerates the extended comparison (paper baselines
// plus TSF, Fogaras MC and the linearized solver).
func BenchmarkExtra(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Extra(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaling regenerates the size-scaling experiment (single-
// source time vs n for the index-free methods).
func BenchmarkScaling(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Scaling(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemory regenerates the index-footprint comparison.
func BenchmarkMemory(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Memory(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
