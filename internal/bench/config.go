// Package bench implements the experiment harness: one runner per table
// and figure of the paper's evaluation section (Table II, Table III,
// Fig 5, Fig 6, Fig 7) plus the fidelity ablations DESIGN.md calls out.
// cmd/repro and the root-level testing.B benchmarks are thin wrappers
// around these runners.
//
// The paper's experiments run on the full SNAP datasets; the harness
// generates the synthetic profile stand-ins at a configurable scale so
// the whole suite finishes in minutes on a laptop. Monte-Carlo iteration
// counts are the theory-derived n_r values multiplied by IterScale: the
// theoretical constants are loose by orders of magnitude (as in the
// original papers' own experiments), and one shared multiplier keeps the
// CrashSim/ProbeSim comparison fair. EXPERIMENTS.md records the exact
// configuration used for the committed results.
package bench

import (
	"fmt"
	"math"
	"runtime"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// Config controls every experiment runner.
type Config struct {
	// Scale multiplies the dataset profile sizes (nodes, edges) for the
	// static experiments. Default 0.05.
	Scale float64
	// TemporalScale is the profile scale for the temporal experiments,
	// which also pay a per-snapshot Power-Method ground truth (Fig 6).
	// Default 0.02.
	TemporalScale float64
	// Sources is the number of random query sources per dataset
	// (the paper uses 100 repetitions). Default 5.
	Sources int
	// Snapshots caps the history length of the Fig 6 temporal runs.
	// Default 8.
	Snapshots int
	// Fig7Snapshots are the query-interval lengths of Fig 7.
	// Default {100, 200, 500, 700}, the paper's values.
	Fig7Snapshots []int
	// Fig7Scale is the AS-733 profile scale for Fig 7 (time-only, no
	// ground truth). Default 0.03.
	Fig7Scale float64
	// Fig7Query selects the Fig 7 query type: "trend" (the paper's
	// figure) or "threshold" (the paper ran it too and reports the
	// results as omitted-but-consistent within 5%). Default "trend".
	Fig7Query string
	// Epsilons are the CrashSim error bounds swept in Fig 5.
	// Default {0.1, 0.05, 0.025, 0.0125}, the paper's values.
	Epsilons []float64
	// Eps is the error bound for the non-swept algorithms and the
	// temporal experiments. Default 0.025.
	Eps float64
	// Delta is the failure probability. Default 0.01.
	Delta float64
	// C is the decay factor. Default 0.6 (the paper's setting).
	C float64
	// IterScale multiplies the theory-derived iteration counts of
	// CrashSim and ProbeSim. Default 0.02.
	IterScale float64
	// ReadsR is the READS walks-per-node parameter r. Default 100, the
	// paper's setting.
	ReadsR int
	// ReadsRQ is READS' query-time refinement walk count r_q.
	// Default 10, the paper's setting.
	ReadsRQ int
	// SlingDSamples is SLING's per-node d(x) sample count. Default 120.
	SlingDSamples int
	// GroundTruthIters is the Power-Method iteration count. Default 55,
	// the paper's setting.
	GroundTruthIters int
	// GTWorkers parallelizes the ground-truth Power Method (results are
	// bit-identical for any value; only the measured algorithms stay
	// single-threaded). Default min(GOMAXPROCS, 8).
	GTWorkers int
	// Seed anchors all randomness.
	Seed uint64
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.TemporalScale == 0 {
		c.TemporalScale = 0.02
	}
	if c.Sources == 0 {
		c.Sources = 5
	}
	if c.Snapshots == 0 {
		c.Snapshots = 8
	}
	if len(c.Fig7Snapshots) == 0 {
		c.Fig7Snapshots = []int{100, 200, 500, 700}
	}
	if c.Fig7Scale == 0 {
		c.Fig7Scale = 0.03
	}
	if c.Fig7Query == "" {
		c.Fig7Query = "trend"
	}
	if len(c.Epsilons) == 0 {
		c.Epsilons = []float64{0.1, 0.05, 0.025, 0.0125}
	}
	if c.Eps == 0 {
		c.Eps = 0.025
	}
	if c.Delta == 0 {
		c.Delta = 0.01
	}
	if c.C == 0 {
		c.C = 0.6
	}
	if c.IterScale == 0 {
		c.IterScale = 0.02
	}
	if c.ReadsR == 0 {
		c.ReadsR = 100
	}
	if c.ReadsRQ == 0 {
		c.ReadsRQ = 10
	}
	if c.SlingDSamples == 0 {
		c.SlingDSamples = 120
	}
	if c.GroundTruthIters == 0 {
		c.GroundTruthIters = 55
	}
	if c.GTWorkers == 0 {
		c.GTWorkers = runtime.GOMAXPROCS(0)
		if c.GTWorkers > 8 {
			c.GTWorkers = 8
		}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// crashIters returns the scaled CrashSim iteration count for a graph
// with n nodes at error bound eps (at least 20).
func (c Config) crashIters(n int, eps float64) int {
	lmax := core.DeriveLmax(c.C)
	nr := float64(core.DeriveIterations(c.C, eps, c.Delta, lmax, n)) * c.IterScale
	if nr < 20 {
		return 20
	}
	return int(nr)
}

// probeIters returns the scaled ProbeSim iteration count.
func (c Config) probeIters(n int, eps float64) int {
	theory := 3 * c.C / (eps * eps) * math.Log(float64(n)/c.Delta)
	nr := theory * c.IterScale
	if nr < 20 {
		return 20
	}
	return int(nr)
}

// sources picks k deterministic distinct query sources from g's giant
// weakly connected component — isolated or dangling sources have
// trivially zero similarity to everything and would make the timing
// comparison meaningless (the paper's random sources implicitly come
// from the giant component of the real datasets).
func (c Config) sources(label string, g *graph.Graph, k int) []int32 {
	pool := graph.GiantComponent(g)
	if len(pool) == 0 {
		pool = make([]graph.NodeID, g.NumNodes())
		for v := range pool {
			pool[v] = graph.NodeID(v)
		}
	}
	r := rng.New(rng.SeedString(fmt.Sprintf("%s/sources/%d", label, c.Seed)))
	seen := make(map[int32]struct{}, k)
	out := make([]int32, 0, k)
	for len(out) < k && len(out) < len(pool) {
		v := int32(pool[r.IntN(len(pool))])
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
