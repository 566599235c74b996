package bench

import (
	"fmt"
	"sort"
	"strings"

	"crashsim/internal/obs"
)

// WorkMeter attributes obs.Default counter traffic to one experiment
// run, so paper-repro reports carry the Monte-Carlo work actually done
// (walks sampled, candidates pruned, scores reused by the temporal
// pruning rules, scratch-pool behavior) next to the timings — the same
// counters the serving path exports through /metrics.
type WorkMeter struct {
	before obs.Snapshot
}

// StartWork snapshots the process-wide counters; call before a run.
func StartWork() *WorkMeter {
	return &WorkMeter{before: obs.Default.Snapshot()}
}

// Lines renders the counter deltas since StartWork as report footer
// lines (prefixed "work:"), skipping zero counters. The output is
// sorted, so reports stay diffable across runs of equal work.
func (w *WorkMeter) Lines() []string {
	d := obs.Default.Snapshot().Delta(w.before)
	names := make([]string, 0, len(d.Counters))
	for name, v := range d.Counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, d.Counters[name]))
	}
	lines := []string{"work: " + strings.Join(parts, " ")}
	// Count and mean are windowed; percentiles do not subtract, so p50
	// and p99 cover the whole process lifetime.
	const lat = "engine.crashsim.latency"
	q, prev := d.Quantiles[lat], w.before.Quantiles[lat]
	if n := q.Count - prev.Count; n > 0 {
		lines = append(lines, fmt.Sprintf(
			"work: crashsim query latency mean=%.4gs over %d queries; lifetime p50=%.4gs p99=%.4gs",
			(q.SumSeconds-prev.SumSeconds)/float64(n), n, q.P50, q.P99))
	}
	return lines
}
