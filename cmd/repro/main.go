// Command repro regenerates the paper's tables and figures using the
// synthetic dataset stand-ins.
//
// Usage:
//
//	repro [flags] [experiment ...]
//
// The experiments table below lists every experiment in the order
// "all" (the default) runs them; `repro -h` prints the names. Flags
// tune scale and budgets; the defaults finish in a few minutes.
// EXPERIMENTS.md records committed results with the exact flags used.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"crashsim/internal/bench"
)

// experiments is every experiment, in the order "all" runs them. Each
// runner returns its reports in print order.
var experiments = []struct {
	name string
	run  func(bench.Config) ([]*bench.Report, error)
}{
	{"table2", func(bench.Config) ([]*bench.Report, error) { _, rep, err := bench.Table2(); return one(rep, err) }},
	{"table3", single(bench.Table3)},
	{"example2", func(bench.Config) ([]*bench.Report, error) { return one(bench.Example2()) }},
	{"fig5", withResults(bench.Fig5)},
	{"fig6", withResults(bench.Fig6)},
	{"fig7", withResults(bench.Fig7)},
	{"ablation", func(cfg bench.Config) ([]*bench.Report, error) {
		est, err := bench.AblationEstimator(cfg)
		if err != nil {
			return nil, err
		}
		pruning, err := bench.AblationPruning(cfg)
		return []*bench.Report{est, pruning}, err
	}},
	{"extra", single(bench.Extra)},
	{"scaling", withResults(bench.Scaling)},
	{"memory", single(bench.Memory)},
}

func one(rep *bench.Report, err error) ([]*bench.Report, error) {
	return []*bench.Report{rep}, err
}

// single adapts a runner that returns one report.
func single(f func(bench.Config) (*bench.Report, error)) func(bench.Config) ([]*bench.Report, error) {
	return func(cfg bench.Config) ([]*bench.Report, error) { return one(f(cfg)) }
}

// withResults adapts a runner that also returns its raw rows; repro
// prints only the report.
func withResults[T any](f func(bench.Config) (T, *bench.Report, error)) func(bench.Config) ([]*bench.Report, error) {
	return func(cfg bench.Config) ([]*bench.Report, error) {
		_, rep, err := f(cfg)
		return one(rep, err)
	}
}

// experimentNames lists the names run accepts, "all" last.
func experimentNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

func main() {
	cfg := bench.Config{}
	flag.Float64Var(&cfg.Scale, "scale", 0, "static dataset scale (default 0.05)")
	flag.Float64Var(&cfg.TemporalScale, "temporal-scale", 0, "temporal dataset scale for fig6 (default 0.02)")
	flag.Float64Var(&cfg.Fig7Scale, "fig7-scale", 0, "as-733 scale for fig7 (default 0.03)")
	flag.IntVar(&cfg.Sources, "sources", 0, "random query sources per dataset (default 5; paper uses 100)")
	flag.IntVar(&cfg.Snapshots, "snapshots", 0, "history length for fig6 (default 8)")
	flag.Float64Var(&cfg.Eps, "eps", 0, "error bound for non-swept algorithms (default 0.025)")
	flag.Float64Var(&cfg.C, "c", 0, "SimRank decay factor (default 0.6)")
	flag.Float64Var(&cfg.IterScale, "iter-scale", 0, "multiplier on theory-derived iteration counts (default 0.02)")
	flag.IntVar(&cfg.GroundTruthIters, "gt-iters", 0, "power-method iterations for ground truth (default 55)")
	flag.StringVar(&cfg.Fig7Query, "fig7-query", "", "fig7 query type: trend or threshold (default trend)")
	seed := flag.Uint64("seed", 0, "experiment seed (default 42)")
	format := flag.String("format", "table", "output format: table or csv")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: repro [flags] [experiment ...]\nexperiments: %s (default all)\n",
			strings.Join(experimentNames(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	cfg.Seed = *seed
	print := func(rep *bench.Report) error { return rep.Fprint(os.Stdout) }
	if *format == "csv" {
		print = func(rep *bench.Report) error { return rep.FprintCSV(os.Stdout) }
	} else if *format != "table" {
		fmt.Fprintf(os.Stderr, "repro: unknown format %q\n", *format)
		os.Exit(1)
	}

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	for _, name := range names {
		if err := run(name, cfg, print); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
	}
}

// run runs the named experiment, or every experiment for "all", and
// prints each report as its experiment finishes.
func run(name string, cfg bench.Config, print func(*bench.Report) error) error {
	matched := false
	for _, e := range experiments {
		if name != "all" && name != e.name {
			continue
		}
		matched = true
		reps, err := e.run(cfg)
		if err != nil {
			return err
		}
		for _, rep := range reps {
			if err := print(rep); err != nil {
				return err
			}
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(experimentNames(), ", "))
	}
	return nil
}
