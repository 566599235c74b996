package bench

import (
	"fmt"
	"math"
)

// CheckRow compares one geomean-speedup section of a fresh run against
// the committed baseline. Ratio is fresh/baseline: below 1-tolerance
// the section regressed (the faster alternative's advantage shrank)
// and the gate fails; above 1 it merely improved, which is noted, never
// failed — a slowdown in the *slower* alternative inflates the ratio
// and must not mask a real regression elsewhere. Missing marks a
// section the baseline records but the fresh run lacks; it fails too.
type CheckRow struct {
	Section  string
	Baseline float64
	Fresh    float64
	Ratio    float64
	OK       bool
	Missing  bool
}

// checkSections are the graded sections in report order. get returns
// the section's geomean speedup and whether the comparison records it.
var checkSections = []struct {
	name string
	get  func(*Comparison) (float64, bool)
}{
	{"batch", func(c *Comparison) (float64, bool) {
		if c.Batch == nil {
			return 0, false
		}
		return c.Batch.GeoMeanSpeedup, true
	}},
	{"store", func(c *Comparison) (float64, bool) {
		if c.Store == nil {
			return 0, false
		}
		return c.Store.GeoMeanSpeedup, true
	}},
	// store-mapped gates the mmap rung (copy vs mapped time to first
	// query) of the store section.
	{"store-mapped", func(c *Comparison) (float64, bool) {
		if c.Store == nil {
			return 0, false
		}
		return c.Store.GeoMeanMappedSpeedup, true
	}},
}

// Check gates the relative performance of the compared alternatives:
// every geomean-speedup section the baseline records (batch, store,
// store-mapped) must be present in the fresh run and hold within
// tolerance of the baseline. A section missing from the fresh run
// fails the gate — CI regenerates every section, so a missing one
// means an experiment silently stopped writing it. Sections the
// baseline lacks are not graded. Comparing speedup *ratios* rather than
// absolute times is what makes the gate portable across machines and
// scales: both columns of each ratio ran on the same hardware in the
// same process.
//
// A baseline with no gradable sections is an error, not a pass — an
// empty gate green-lighting everything is the worst failure mode a
// perf gate can have.
func Check(baseline, fresh *Comparison, tolerance float64) ([]CheckRow, *Report, error) {
	if !(tolerance > 0 && tolerance < 1) {
		return nil, nil, fmt.Errorf("bench: check tolerance must be in (0,1), got %g", tolerance)
	}
	var rows []CheckRow
	for _, s := range checkSections {
		base, inBase := s.get(baseline)
		if !inBase {
			continue
		}
		now, inFresh := s.get(fresh)
		if !inFresh {
			rows = append(rows, CheckRow{Section: s.name, Baseline: base, Missing: true})
			continue
		}
		if !(base > 0) || !(now > 0) || math.IsInf(base, 0) || math.IsInf(now, 0) {
			return nil, nil, fmt.Errorf("bench: check section %q has a non-positive or non-finite geomean (baseline %g, fresh %g)",
				s.name, base, now)
		}
		ratio := now / base
		rows = append(rows, CheckRow{
			Section:  s.name,
			Baseline: base,
			Fresh:    now,
			Ratio:    ratio,
			OK:       ratio >= 1-tolerance,
		})
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("bench: check baseline records no gradable section")
	}

	rep := &Report{
		Title:   "Perf-regression gate: fresh geomean speedups vs committed baseline",
		Notes:   []string{fmt.Sprintf("tolerance: a section fails below %.0f%% of its baseline ratio", (1-tolerance)*100)},
		Columns: []string{"section", "baseline", "fresh", "ratio", "verdict"},
	}
	failed := 0
	var missing []string
	for _, r := range rows {
		if r.Missing {
			missing = append(missing, r.Section)
			rep.AddRow(r.Section, fmt.Sprintf("%.3fx", r.Baseline), "-", "-", "MISSING")
			continue
		}
		verdict := "ok"
		if !r.OK {
			verdict = "REGRESSED"
			failed++
		} else if r.Ratio > 1+tolerance {
			verdict = "improved"
		}
		rep.AddRow(r.Section, fmt.Sprintf("%.3fx", r.Baseline), fmt.Sprintf("%.3fx", r.Fresh),
			fmt.Sprintf("%.3f", r.Ratio), verdict)
	}
	switch {
	case len(missing) > 0:
		rep.Footer = append(rep.Footer, fmt.Sprintf("%d of %d sections missing from the fresh run", len(missing), len(rows)))
		return rows, rep, fmt.Errorf("bench: fresh run lacks baseline sections %v", missing)
	case failed > 0:
		rep.Footer = append(rep.Footer, fmt.Sprintf("%d of %d sections regressed", failed, len(rows)))
		return rows, rep, fmt.Errorf("bench: perf regression: %d of %d sections below %.0f%% of baseline",
			failed, len(rows), (1-tolerance)*100)
	}
	rep.Footer = append(rep.Footer, fmt.Sprintf("all %d sections within tolerance", len(rows)))
	return rows, rep, nil
}
