package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"crashsim/internal/obs"
)

// metricDef names one reported metric and the direction in which it
// improves. from says which child process measures it: the setup child,
// the untraced serving child ("run"), or the traced one. A per-layer
// metric a workload does not exercise (a cache metric with the cache
// off, a PRSim metric on CrashSim) reads 0.
type metricDef struct {
	name, unit, better, from string
}

// Directions of improvement.
const (
	lower  = "lower"
	higher = "higher"
)

// Child roles.
const (
	roleSetup  = "setup"
	roleRun    = "run"
	roleTraced = "traced"
)

// endToEnd are the metrics printed with --trace 0; BENCHMARK.json
// gives their bounds.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", lower, roleRun},
	{"goodput_qps", "1/s", higher, roleRun},
	{"rss_mib", "MiB", lower, roleRun},
	{"setup_s", "s", lower, roleSetup},
}

// perLayer are the metrics printed with --trace 1.
var perLayer = []metricDef{
	// load: the generator's own validity.
	{"load.lag_ms_max", "ms", lower, roleRun},
	{"load.conns", "count", lower, roleRun},
	{"load.inflight_max", "count", lower, roleRun},
	{"load.shed_rate", "fraction", lower, roleRun},
	{"load.topk_p50_ms", "ms", lower, roleRun},
	{"load.single_p50_ms", "ms", lower, roleRun},
	{"load.batch_p50_ms", "ms", lower, roleRun},
	{"load.trend_p50_ms", "ms", lower, roleRun},
	{"load.threshold_p50_ms", "ms", lower, roleRun},
	// server: handler spans and admission.
	{"server.topk_ms_p50", "ms", lower, roleTraced},
	{"server.single_ms_p50", "ms", lower, roleTraced},
	{"server.batch_ms_p50", "ms", lower, roleTraced},
	{"server.topk_self_ms_p50", "ms", lower, roleTraced},
	{"server.single_self_ms_p50", "ms", lower, roleTraced},
	{"server.batch_self_ms_p50", "ms", lower, roleTraced},
	{"server.wait_ms_p50", "ms", lower, roleTraced},
	{"server.rejected", "count", lower, roleRun},
	{"server.new_ms", "ms", lower, roleSetup},
	// cache
	{"cache.hit_ratio", "fraction", higher, roleRun},
	{"cache.coalesced", "count", higher, roleRun},
	{"cache.evictions", "count", lower, roleRun},
	{"cache.bytes_end_mib", "MiB", lower, roleRun},
	{"cache.hit_ms_p50", "ms", lower, roleTraced},
	// engine: the traced backend, which sees cache misses only.
	{"engine.single_ms_p50", "ms", lower, roleTraced},
	{"engine.topk_ms_p50", "ms", lower, roleTraced},
	{"engine.multisource_ms_p50", "ms", lower, roleTraced},
	{"engine.calls_per_request", "count", lower, roleTraced},
	// core
	{"core.revreach_ms_p50", "ms", lower, roleTraced},
	{"core.estimate_ms_p50", "ms", lower, roleTraced},
	{"core.topk_ms_p50", "ms", lower, roleTraced},
	{"core.multisource_ms_p50", "ms", lower, roleTraced},
	{"core.crashsimt_ms_p50", "ms", lower, roleTraced},
	{"core.tree_support_mean", "count", lower, roleTraced},
	{"core.walks_per_query", "count", lower, roleRun},
	{"core.candidates_per_query", "count", lower, roleRun},
	{"core.prefilter_pruned_ratio", "fraction", higher, roleRun},
	{"core.frozen_compiled_per_query", "count", lower, roleRun},
	{"core.batch_dedup_ratio", "fraction", higher, roleRun},
	{"core.pool_miss_ratio", "fraction", lower, roleRun},
	// ranking (internal/metrics)
	{"rank.topk_ms_p50", "ms", lower, roleRun},
	{"rank.entries_mean", "count", lower, roleRun},
	// prsim
	{"prsim.single_ms_p50", "ms", lower, roleTraced},
	{"prsim.multisource_ms_p50", "ms", lower, roleTraced},
	{"prsim.hub_hit_ratio", "fraction", higher, roleRun},
	{"prsim.visits_per_query", "count", lower, roleRun},
	{"prsim.tail_builds", "count", lower, roleRun},
	// store and graph loading
	{"store.open_ms", "ms", lower, roleSetup},
	{"store.import_ms", "ms", lower, roleSetup},
	{"store.mapped_mib", "MiB", lower, roleSetup},
	{"store.crc_verified", "count", lower, roleSetup},
	{"graph.load_ms", "ms", lower, roleSetup},
	// temporal
	{"temporal.load_ms", "ms", lower, roleSetup},
	{"temporal.scan_ms", "ms", lower, roleSetup},
	{"core.temporal.tree_patched", "count", higher, roleTraced},
	{"core.temporal.tree_rebuilt", "count", lower, roleTraced},
	{"core.temporal.frozen_reused", "count", higher, roleTraced},
	{"core.temporal.candtree_hit_ratio", "fraction", higher, roleTraced},
	{"core.temporal.evaluated_per_query", "count", lower, roleTraced},
	{"core.temporal.reused_per_query", "count", higher, roleTraced},
	// runtime
	{"runtime.rss_peak_mib", "MiB", lower, roleRun},
	{"runtime.alloc_mib_per_op", "MiB", lower, roleRun},
	{"runtime.gc_cycles", "count", lower, roleRun},
	{"runtime.gc_pause_ms_total", "ms", lower, roleRun},
	{"runtime.heap_live_mib_end", "MiB", lower, roleRun},
	// host: CPU time other guests took during the window; a run with a
	// high share was measured on a contended machine.
	{"host.steal_pct", "%", lower, roleRun},
	// self time by layer, as a share of all root-span time
	{"self.server_pct", "%", lower, roleTraced},
	{"self.engine_pct", "%", lower, roleTraced},
	{"self.core_pct", "%", lower, roleTraced},
	{"self.prsim_pct", "%", lower, roleTraced},
	// trace
	{"trace.overhead_pct", "%", lower, roleTraced},
}

// childResult is what one child process reports back.
type childResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Failures lists failed correctness checks; any fails the run.
	Failures []string `json:"failures,omitempty"`
	// Table is a human-readable summary printed before the result line.
	Table []string `json:"table,omitempty"`
}

func newChildResult() *childResult {
	return &childResult{Metrics: map[string]float64{}}
}

func (r *childResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *childResult) note(format string, args ...any) {
	r.Table = append(r.Table, fmt.Sprintf(format, args...))
}

// endToEndMetrics fills the latency and goodput metrics and the
// attempted/failed counts from the window's outcomes, and fails the run
// on any error response or unmet sample floor.
func endToEndMetrics(w workload, res *childResult, out []outcome, stats [numKinds]kindStats, elapsed time.Duration) {
	mt := res.Metrics
	var p50s []float64
	shed, errs := 0, 0
	for _, k := range w.kinds() {
		ks := stats[k]
		shed += ks.shed
		errs += ks.errors
		p50, ok := percentile(ks.lat, 0.5)
		if !ok {
			res.fail("%s: %d served %s requests, too few for a p50 with %d samples beyond it", w.Name, ks.served, k, minBeyond)
			continue
		}
		mt["load."+k.String()+"_p50_ms"] = ms(p50)
		p50s = append(p50s, ms(p50))
		line := fmt.Sprintf("  %-9s offered %5d served %5d shed %4d errors %3d  p50 %9.3fms", k, ks.offered, ks.served, ks.shed, ks.errors, ms(p50))
		for _, q := range []float64{0.9, 0.99} {
			if v, ok := percentile(ks.lat, q); ok {
				line += fmt.Sprintf("  p%g %9.3fms", q*100, ms(v))
			}
		}
		res.note("%s  max %9.3fms", line, ms(ks.lat[len(ks.lat)-1]))
	}
	if len(p50s) == len(w.kinds()) {
		g, err := geomean(p50s)
		if err != nil {
			res.fail("latency_p50_ms: %v", err)
		}
		mt["latency_p50_ms"] = g
	}
	good := 0
	for _, o := range out {
		if o.served() && o.lat <= w.Limit {
			good++
		}
	}
	mt["goodput_qps"] = float64(good) / elapsed.Seconds()
	mt["load.shed_rate"] = ratio(float64(shed), float64(len(out)))
	res.Attempted = len(out)
	res.Failed = shed + errs
	if errs > 0 {
		var samples []string
		for _, o := range out {
			if !o.served() && !o.shed() && len(samples) < 3 {
				samples = append(samples, fmt.Sprintf("%s status %d %s", o.kind, o.status, o.err))
			}
		}
		res.fail("%d requests failed (neither 2xx nor 429): %s", errs, strings.Join(samples, "; "))
	}
}

// counterMetrics derives per-layer ratios from the obs counters the
// window moved; base is the backend family and queries the number of
// estimator queries the window ran.
func counterMetrics(mt map[string]float64, d obs.Snapshot, base string, queries float64) {
	c := func(name string) float64 { return float64(d.Counters[name]) }
	mt["server.rejected"] = c("server.rejected")
	mt["cache.hit_ratio"] = ratio(c("cache.hits"), c("cache.hits")+c("cache.misses"))
	mt["cache.coalesced"] = c("cache.coalesced")
	mt["cache.evictions"] = c("cache.evictions")
	mt["cache.bytes_end_mib"] = float64(d.Gauges["cache.bytes"]) / (1 << 20)
	if base == "crashsim" {
		mt["core.walks_per_query"] = ratio(c("core.walks"), queries)
		mt["core.candidates_per_query"] = ratio(c("core.candidates"), queries)
		mt["core.prefilter_pruned_ratio"] = ratio(c("core.prefilter_pruned"), c("core.candidates"))
		mt["core.frozen_compiled_per_query"] = ratio(c("core.frozen.compiled"), queries)
		mt["core.batch_dedup_ratio"] = ratio(c("core.batch.dedup_hits"), c("core.batch.sources"))
		var hits, misses float64
		for name, v := range d.Counters {
			if strings.HasPrefix(name, "core.pool.") {
				switch {
				case strings.HasSuffix(name, "_hits"):
					hits += float64(v)
				case strings.HasSuffix(name, "_misses"):
					misses += float64(v)
				}
			}
		}
		mt["core.pool_miss_ratio"] = ratio(misses, hits+misses)
	}
	if base == "prsim" {
		mt["prsim.hub_hit_ratio"] = ratio(c("prsim.hub_hits"), c("prsim.visits"))
		mt["prsim.visits_per_query"] = ratio(c("prsim.visits"), queries)
		mt["prsim.tail_builds"] = c("prsim.tail_builds")
	}
}

func runtimeMetrics(mt map[string]float64, m0, m1 *runtime.MemStats, ops int) {
	mt["runtime.alloc_mib_per_op"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), float64(ops))
	mt["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	mt["runtime.gc_pause_ms_total"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	mt["runtime.heap_live_mib_end"] = float64(m.HeapAlloc) / (1 << 20)
}

// selfShares reports each layer's self time as a share of the time
// covered by root spans.
func selfShares(mt map[string]float64, spans []span, self []time.Duration) {
	var root time.Duration
	by := map[string]time.Duration{}
	for i, s := range spans {
		if s.parent == 0 {
			root += s.end - s.start
		}
		layer, _, _ := strings.Cut(s.name, ".")
		by[layer] += self[i]
	}
	for _, layer := range []string{"server", "engine", "core", "prsim"} {
		mt["self."+layer+"_pct"] = 100 * ratio(float64(by[layer]), float64(root))
	}
}

func writeTrace(rc runConfig, spans []span, res *childResult) error {
	if rc.TraceOut == "" {
		return nil
	}
	if err := writeChromeTrace(rc.TraceOut, spans); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	res.note("  trace: %d spans written to %s", len(spans), rc.TraceOut)
	return nil
}

// rssInterval is how often rssSampler reads the resident set size.
const rssInterval = 50 * time.Millisecond

// rssSampler records the process's resident set size (MiB) every
// rssInterval until stop.
type rssSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []float64
	// CPU times at the start, for the window's steal share.
	steal, total uint64
	err          error
}

func sampleRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.steal, s.total, s.err = cpuTimes()
	page := float64(os.Getpagesize()) / (1 << 20)
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			var size, resident float64
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
					s.samples = append(s.samples, resident*page)
				}
			}
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the samples.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.quit)
	<-s.done
	if len(s.samples) == 0 {
		return nil, errors.New("no resident set size samples from /proc/self/statm")
	}
	return s.samples, nil
}

// memoryMetrics reports the window's median resident set size, the
// process's peak, and the share of CPU time stolen by other guests
// during the window.
func memoryMetrics(res *childResult, window *rssSampler) error {
	samples, err := window.stop()
	if err != nil {
		return err
	}
	steal, total, err := cpuTimes()
	if err = errors.Join(window.err, err); err != nil {
		return err
	}
	res.Metrics["host.steal_pct"] = 100 * ratio(float64(steal-window.steal), float64(total-window.total))
	peak, err := vmHWM()
	if err != nil {
		return err
	}
	slices.Sort(samples)
	q := func(p float64) float64 { return samples[int(p*float64(len(samples)-1))] }
	res.Metrics["rss_mib"] = median(samples)
	res.Metrics["runtime.rss_peak_mib"] = peak
	res.note("  resident MiB over %d samples: p25 %.1f p50 %.1f p75 %.1f p90 %.1f max %.1f; peak %.1f",
		len(samples), q(0.25), q(0.5), q(0.75), q(0.9), q(1), peak)
	return nil
}

// cpuTimes reads the host's stolen and total CPU time (in clock ticks)
// from /proc/stat: time the hypervisor gave to other guests counts as
// stolen.
func cpuTimes() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// vmHWM is the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
