// Command repro regenerates the paper's tables and figures using the
// synthetic dataset stand-ins.
//
// Usage:
//
//	repro [flags] [experiment ...]
//
// Experiments: table2, table3, example2, fig5, fig6, fig7, ablation,
// extra, scaling, memory, throughput, store, check, all (default: all).
// Flags tune scale and budgets; the defaults finish in a few minutes.
// EXPERIMENTS.md records committed results with the exact flags used.
//
// -kernel-json names the machine-readable comparison file
// (BENCH_crashsim.json): the throughput experiment merges its batch
// section into it and the store experiment its store section; each
// writer preserves the section it does not own.
//
// "check" is the perf-regression gate: it compares the geomean-speedup
// sections of a freshly generated comparison file (-check-fresh,
// e.g. the CI smoke run's output) against the committed baseline
// (-check-baseline, BENCH_crashsim.json) and exits non-zero when a
// baseline section is missing from the fresh file or falls below
// 1 - tolerance of its baseline ratio. It is not part of "all": it
// needs a fresh file to grade.
package main

import (
	"flag"
	"fmt"
	"os"

	"crashsim/internal/bench"
)

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
	flag.Float64Var(&cfg.ZipfS, "zipf-s", 0, "rank-Zipf exponent for the throughput experiment's source skew (default 1.3)")
	checkBaseline := flag.String("check-baseline", "BENCH_crashsim.json", "committed comparison file the check experiment grades against")
	checkFresh := flag.String("check-fresh", "", "freshly generated comparison file for the check experiment (required by check)")
	checkTolerance := flag.Float64("check-tolerance", 0.15, "check fails a section below 1-tolerance of its baseline geomean ratio")
	seed := flag.Uint64("seed", 0, "experiment seed (default 42)")
	format := flag.String("format", "table", "output format: table or csv")
	kernelJSON := flag.String("kernel-json", "", "if set, the throughput and store experiments merge their sections into this comparison file (e.g. BENCH_crashsim.json)")
	flag.Parse()
	cfg.Seed = *seed
	print := func(rep *bench.Report) error { return rep.Fprint(os.Stdout) }
	if *format == "csv" {
		print = func(rep *bench.Report) error { return rep.FprintCSV(os.Stdout) }
	} else if *format != "table" {
		fmt.Fprintf(os.Stderr, "repro: unknown format %q\n", *format)
		os.Exit(1)
	}

	opt := options{
		kernelJSON:     *kernelJSON,
		checkBaseline:  *checkBaseline,
		checkFresh:     *checkFresh,
		checkTolerance: *checkTolerance,
	}
	experiments := flag.Args()
	if len(experiments) == 0 {
		experiments = []string{"all"}
	}
	for _, name := range experiments {
		if err := run(name, cfg, print, opt); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
	}
}

// options carries the file-path and gate flags that are not bench
// config.
type options struct {
	kernelJSON     string
	checkBaseline  string
	checkFresh     string
	checkTolerance float64
}

func run(name string, cfg bench.Config, print func(*bench.Report) error, opt options) error {
	switch name {
	case "all":
		for _, e := range []string{"table2", "table3", "example2", "fig5", "fig6", "fig7", "ablation", "extra", "scaling", "memory", "throughput", "store"} {
			if err := run(e, cfg, print, opt); err != nil {
				return err
			}
		}
		return nil
	case "check":
		if opt.checkFresh == "" {
			return fmt.Errorf("check needs -check-fresh pointing at a freshly generated comparison file")
		}
		baseline, err := bench.ReadComparison(opt.checkBaseline)
		if err != nil {
			return err
		}
		fresh, err := bench.ReadComparison(opt.checkFresh)
		if err != nil {
			return err
		}
		_, rep, err := bench.Check(baseline, fresh, opt.checkTolerance)
		if rep != nil {
			if perr := print(rep); perr != nil && err == nil {
				err = perr
			}
		}
		return err
	case "throughput":
		bcmp, rep, err := bench.Throughput(cfg)
		if err != nil {
			return err
		}
		if opt.kernelJSON != "" {
			if err := bench.MergeComparison(opt.kernelJSON, func(c *bench.Comparison) { c.Batch = bcmp }); err != nil {
				return err
			}
		}
		return print(rep)
	case "store":
		scmp, rep, err := bench.Store(cfg)
		if err != nil {
			return err
		}
		if opt.kernelJSON != "" {
			if err := bench.MergeComparison(opt.kernelJSON, func(c *bench.Comparison) { c.Store = scmp }); err != nil {
				return err
			}
		}
		return print(rep)
	case "table2":
		_, rep, err := bench.Table2()
		if err != nil {
			return err
		}
		return print(rep)
	case "table3":
		rep, err := bench.Table3(cfg)
		if err != nil {
			return err
		}
		return print(rep)
	case "example2":
		rep, err := bench.Example2()
		if err != nil {
			return err
		}
		return print(rep)
	case "fig5":
		_, rep, err := bench.Fig5(cfg)
		if err != nil {
			return err
		}
		return print(rep)
	case "fig6":
		_, rep, err := bench.Fig6(cfg)
		if err != nil {
			return err
		}
		return print(rep)
	case "fig7":
		_, rep, err := bench.Fig7(cfg)
		if err != nil {
			return err
		}
		return print(rep)
	case "ablation":
		rep, err := bench.AblationEstimator(cfg)
		if err != nil {
			return err
		}
		if err := print(rep); err != nil {
			return err
		}
		rep, err = bench.AblationPruning(cfg)
		if err != nil {
			return err
		}
		return print(rep)
	case "extra":
		rep, err := bench.Extra(cfg)
		if err != nil {
			return err
		}
		return print(rep)
	case "scaling":
		_, rep, err := bench.Scaling(cfg)
		if err != nil {
			return err
		}
		return print(rep)
	case "memory":
		rep, err := bench.Memory(cfg)
		if err != nil {
			return err
		}
		return print(rep)
	default:
		return fmt.Errorf("unknown experiment %q (want table2, table3, example2, fig5, fig6, fig7, ablation, extra, scaling, memory, throughput, store, check, all)", name)
	}
}
