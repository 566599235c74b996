package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"crashsim/internal/engine"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
	"crashsim/internal/store"
)

// StoreResult is one (dataset, index family) row of the snapshot
// cold-vs-warm comparison: the time to build the index from scratch
// (what every restart used to pay) against the time to load it back
// from an internal/store snapshot (what a warm restart pays now), plus
// the one-time save cost and the snapshot size. The loaded index is
// verified bit-identical to the built one before the row is trusted,
// so the two columns answer the same queries. Both warm paths run the
// one snapshot decoder: "copy" columns read the file onto the heap
// (store.Load), "mapped" columns map it (store.OpenMapped).
type StoreResult struct {
	Dataset string `json:"dataset"`
	Algo    string `json:"algo"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	// BuildMS is the cold path: index construction over the graph
	// (best of buildTimingReps repetitions).
	BuildMS float64 `json:"build_ms"`
	// SaveMS is the write-through: encode + checksum + atomic write
	// (best of storeTimingReps repetitions).
	SaveMS float64 `json:"save_ms"`
	// LoadMS is the heap warm path: read the file + verify checksums,
	// graph and index frames + import (store.Load; best of
	// storeTimingReps repetitions).
	LoadMS float64 `json:"load_ms"`
	// MappedLoadMS is the zero-copy warm path: mmap the snapshot and
	// import typed views aliasing the mapping (store.OpenMapped, default
	// section-CRC policy; best of storeTimingReps repetitions).
	MappedLoadMS float64 `json:"mapped_load_ms"`
	// CopyFirstQueryMS / MappedFirstQueryMS time the full restart to
	// first answer: load (heap vs mapped), construct the estimator,
	// answer one single-source query. This is the latency a restarting
	// replica's first caller actually sees.
	CopyFirstQueryMS   float64 `json:"copy_first_query_ms"`
	MappedFirstQueryMS float64 `json:"mapped_first_query_ms"`
	// CopyRSSKB / MappedRSSKB are the private-memory cost (RssAnon from
	// /proc/self/status, KiB, after debug.FreeOSMemory on both sides)
	// of holding one loaded index read onto the heap vs aliased into
	// the mapping. Anonymous RSS is the honest comparison: a mapped
	// index's resident pages are file-backed — shared across processes
	// and evictable under pressure — so they do not show up here, while
	// a heap index's bytes are private and unevictable. Zero on
	// platforms without /proc. Small graphs measure mostly allocator
	// noise; the column is meaningful at full bench scale.
	CopyRSSKB   int64 `json:"copy_rss_kb"`
	MappedRSSKB int64 `json:"mapped_rss_kb"`
	// Bytes is the snapshot file size (graph + meta + index sections).
	Bytes int64 `json:"bytes"`
	// Speedup is BuildMS / LoadMS: how much faster a warm restart
	// brings this index online.
	Speedup float64 `json:"speedup"`
}

// StoreComparison is the machine-readable "store" section of
// BENCH_crashsim.json (see Comparison.Store).
type StoreComparison struct {
	Config         string        `json:"config"`
	Results        []StoreResult `json:"results"`
	GeoMeanSpeedup float64       `json:"geomean_speedup"`
}

// storeTimingReps is how many times each save and load is repeated;
// buildTimingReps how many times each index build is. The fastest
// repetition is kept, as in the throughput comparison: all phases are
// deterministic, so repetitions differ only by machine noise and the
// minimum is the cleanest estimate. Builds dominate the runtime, so
// they get fewer repetitions.
const (
	storeTimingReps = 3
	buildTimingReps = 2
)

// Store measures index persistence (internal/store) on every default
// synthetic profile for both index families: build the index the way a
// cold start does, write the snapshot through, load it back the way a
// warm restart does, and verify the loaded index is bit-identical to
// the built one (exported payloads and single-source scores) before
// reporting the row. Builds run single-threaded, like every measured
// algorithm in the harness.
func Store(cfg Config) (*StoreComparison, *Report, error) {
	cfg = cfg.WithDefaults()
	dir, err := os.MkdirTemp("", "crashsim-store-bench-")
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)

	cmp := &StoreComparison{
		Config: fmt.Sprintf("scale=%.3g sources=%d eps=%g c=%.2g dsamples=%d r=%d rq=%d seed=%d",
			cfg.Scale, cfg.Sources, cfg.Eps, cfg.C, cfg.SlingDSamples, cfg.ReadsR, cfg.ReadsRQ, cfg.Seed),
	}
	// The paper's Table III set plus the workload-scale web-1m serving
	// profile: restart latency matters most on the graphs a replica
	// actually serves, and web-1m is where the heap and mapped paths
	// differ most in private memory.
	profs := gen.Profiles()
	if web, err := gen.ProfileByName("web-1m"); err == nil {
		profs = append(profs, web)
	}
	for _, prof := range profs {
		p := prof.Scaled(cfg.Scale)
		seed := rng.SeedString(fmt.Sprintf("store/%s/%d", p.Name, cfg.Seed))
		g, err := p.Static(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: generating %s: %w", p.Name, err)
		}
		ecfg := engine.Config{
			C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta, Workers: 1, Seed: seed,
			SlingDSamples: cfg.SlingDSamples, ReadsR: cfg.ReadsR, ReadsRQ: cfg.ReadsRQ,
		}
		sources := cfg.sources("store/"+p.Name, g, cfg.Sources)
		for _, algo := range []string{"sling", "reads"} {
			r, err := storeRound(g, p.Name, algo, dir, ecfg, sources)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s/%s: %w", p.Name, algo, err)
			}
			cmp.Results = append(cmp.Results, r)
		}
	}

	logSum := 0.0
	for _, r := range cmp.Results {
		logSum += math.Log(r.Speedup)
	}
	cmp.GeoMeanSpeedup = math.Exp(logSum / float64(len(cmp.Results)))

	rep := &Report{
		Title: "Index snapshot store: cold build vs warm heap load vs mmap (internal/store)",
		Notes: []string{cmp.Config,
			"heap-loaded and mapped indexes verified bit-identical to built ones before timing is trusted",
			"first-query columns time load + estimator construction + one single-source answer"},
		Columns: []string{"dataset", "algo", "n", "m", "build-ms", "save-ms", "load-ms", "mmap-ms",
			"heap-fq-ms", "mmap-fq-ms", "KiB", "speedup"},
	}
	for _, r := range cmp.Results {
		rep.AddRow(r.Dataset, r.Algo, fmt.Sprint(r.Nodes), fmt.Sprint(r.Edges),
			fmt.Sprintf("%.1f", r.BuildMS), fmt.Sprintf("%.1f", r.SaveMS),
			fmt.Sprintf("%.1f", r.LoadMS), fmt.Sprintf("%.2f", r.MappedLoadMS),
			fmt.Sprintf("%.1f", r.CopyFirstQueryMS), fmt.Sprintf("%.2f", r.MappedFirstQueryMS),
			fmt.Sprintf("%.0f", float64(r.Bytes)/1024),
			fmt.Sprintf("%.1fx", r.Speedup))
	}
	rep.Footer = append(rep.Footer, fmt.Sprintf("geomean warm-restart speedup: %.1fx", cmp.GeoMeanSpeedup))
	return cmp, rep, nil
}

// storeRound runs one (graph, algo) build → save → load → verify cycle
// and returns its timings.
func storeRound(g *graph.Graph, dataset, algo, dir string, ecfg engine.Config, sources []int32) (StoreResult, error) {
	ctx := context.Background()
	snap := &store.Snapshot{
		Graph: g,
		Meta:  store.Meta{Dataset: dataset, Tool: "bench", CreatedUnix: time.Now().Unix()},
	}

	// Builds are deterministic, so every repetition produces the same
	// index; the last one doubles as the verification reference (via
	// the engine's preload path).
	builtCfg := ecfg
	buildSec := math.Inf(1)
	for rep := 0; rep < buildTimingReps; rep++ {
		start := time.Now()
		switch algo {
		case "sling":
			ix, err := engine.BuildSlingIndex(ctx, g, ecfg)
			if err != nil {
				return StoreResult{}, err
			}
			p := ix.Export()
			snap.Sling = &p
			builtCfg.SlingIndex = ix
		case "reads":
			ix, err := engine.BuildReadsIndex(ctx, g, ecfg)
			if err != nil {
				return StoreResult{}, err
			}
			p := ix.Export()
			snap.Reads = &p
			builtCfg.ReadsIndex = ix
		default:
			return StoreResult{}, fmt.Errorf("unknown index algo %q", algo)
		}
		buildSec = math.Min(buildSec, time.Since(start).Seconds())
	}

	path := store.SnapshotPath(dir, dataset, algo)
	saveSec := math.Inf(1)
	for rep := 0; rep < storeTimingReps; rep++ {
		start := time.Now()
		if err := store.Write(path, snap); err != nil {
			return StoreResult{}, err
		}
		saveSec = math.Min(saveSec, time.Since(start).Seconds())
	}
	fi, err := os.Stat(path)
	if err != nil {
		return StoreResult{}, err
	}

	// The last repetition of each load is verified bit-identical to the
	// rebuild; the first-query rounds time load, estimator construction
	// and one answer.
	verify := func(cfg engine.Config, lg *graph.Graph) error {
		return verifyLoadedIndex(g, algo, builtCfg, cfg, lg, sources)
	}
	first := func(cfg engine.Config, lg *graph.Graph) error {
		return answerOne(ctx, algo, lg, cfg, graph.NodeID(sources[0]))
	}
	heapOpen := func() (*store.Mapped, error) { return store.Load(path) }
	// The mapped rungs use the default section-CRC policy — what a
	// production restart uses.
	mappedOpen := func() (*store.Mapped, error) { return store.OpenMapped(path, store.MapOptions{}) }
	loadSec, err := bestOpen(heapOpen, algo, ecfg, nil, verify)
	if err != nil {
		return StoreResult{}, err
	}
	mappedSec, err := bestOpen(mappedOpen, algo, ecfg, nil, verify)
	if err != nil {
		return StoreResult{}, err
	}
	fqCopySec, err := bestOpen(heapOpen, algo, ecfg, first, nil)
	if err != nil {
		return StoreResult{}, err
	}
	fqMappedSec, err := bestOpen(mappedOpen, algo, ecfg, first, nil)
	if err != nil {
		return StoreResult{}, err
	}
	copyRSS, err := rssDeltaKB(func() (func(), error) {
		_, _, release, err := openImport(heapOpen, algo, ecfg)
		return release, err
	})
	if err != nil {
		return StoreResult{}, err
	}
	mappedRSS, err := rssDeltaKB(func() (func(), error) {
		_, _, release, err := openImport(mappedOpen, algo, ecfg)
		return release, err
	})
	if err != nil {
		return StoreResult{}, err
	}

	return StoreResult{
		Dataset: dataset, Algo: algo,
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		BuildMS:            buildSec * 1e3,
		SaveMS:             saveSec * 1e3,
		LoadMS:             loadSec * 1e3,
		MappedLoadMS:       mappedSec * 1e3,
		CopyFirstQueryMS:   fqCopySec * 1e3,
		MappedFirstQueryMS: fqMappedSec * 1e3,
		CopyRSSKB:          copyRSS,
		MappedRSSKB:        mappedRSS,
		Bytes:              fi.Size(),
		Speedup:            buildSec / loadSec,
	}, nil
}

// bestOpen opens the snapshot and imports the index storeTimingReps
// times and returns the fastest repetition's seconds. timed, if set,
// runs inside the clock; check, if set, runs on the last repetition
// after the clock stops.
func bestOpen(open func() (*store.Mapped, error), algo string, ecfg engine.Config,
	timed, check func(engine.Config, *graph.Graph) error) (float64, error) {
	best := math.Inf(1)
	for rep := 0; rep < storeTimingReps; rep++ {
		start := time.Now()
		cfg, g, release, err := openImport(open, algo, ecfg)
		if err != nil {
			return 0, err
		}
		if timed != nil {
			err = timed(cfg, g)
		}
		best = math.Min(best, time.Since(start).Seconds())
		if err == nil && check != nil && rep == storeTimingReps-1 {
			err = check(cfg, g)
		}
		release()
		if err != nil {
			return 0, err
		}
	}
	return best, nil
}

// openImport opens the snapshot and imports the requested index. The
// returned release closes the index (and with it the last buffer
// reference; the handle itself is closed before returning).
func openImport(open func() (*store.Mapped, error), algo string, ecfg engine.Config) (engine.Config, *graph.Graph, func(), error) {
	mp, err := open()
	if err != nil {
		return ecfg, nil, nil, err
	}
	defer mp.Close()
	g := mp.Graph()
	switch algo {
	case "sling":
		ix, err := mp.ImportSling(g)
		if err != nil {
			return ecfg, nil, nil, err
		}
		ecfg.SlingIndex = ix
		return ecfg, g, func() { ix.Close() }, nil
	case "reads":
		ix, err := mp.ImportReads(g)
		if err != nil {
			return ecfg, nil, nil, err
		}
		ecfg.ReadsIndex = ix
		return ecfg, g, func() { ix.Close() }, nil
	}
	return ecfg, nil, nil, fmt.Errorf("unknown index algo %q", algo)
}

// answerOne constructs the estimator over a loaded index and answers a
// single query — the tail of the time-to-first-answer measurement.
func answerOne(ctx context.Context, algo string, g *graph.Graph, ecfg engine.Config, u graph.NodeID) error {
	est, err := engine.New(ctx, algo, g, ecfg)
	if err != nil {
		return err
	}
	_, err = est.SingleSource(ctx, u, nil)
	return err
}

// rssDeltaKB measures the private-memory cost of holding one loaded
// index: anonymous RSS before the load and after it, in KiB, with
// debug.FreeOSMemory around both readings so freed spans are returned
// to the OS and only live bytes are counted — plain runtime.GC keeps
// freed spans resident and made loads that fit in recycled heap read
// as zero (or negative, from earlier phases' scavenging). Anonymous
// RSS rather than VmRSS because a mapped index's resident pages are
// file-backed: shared and evictable, not a per-process cost. Returns 0
// where /proc/self/status is unavailable.
func rssDeltaKB(load func() (func(), error)) (int64, error) {
	debug.FreeOSMemory()
	before := readAnonRSSKB()
	release, err := load()
	if err != nil {
		return 0, err
	}
	debug.FreeOSMemory()
	after := readAnonRSSKB()
	if release != nil {
		release()
	}
	if before == 0 || after == 0 {
		return 0, nil
	}
	return after - before, nil
}

// readAnonRSSKB parses RssAnon out of /proc/self/status (VmRSS as a
// fallback on kernels without the split); 0 if unreadable.
func readAnonRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var vmRSS int64
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "RssAnon:"); ok {
			return parseStatusKB(rest)
		}
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			vmRSS = parseStatusKB(rest)
		}
	}
	return vmRSS
}

func parseStatusKB(rest string) int64 {
	kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
	if err != nil {
		return 0
	}
	return kb
}

// verifyLoadedIndex fails unless the snapshot round trip preserved the
// index exactly: the estimator over the loaded index must answer every
// benchmark source bit-for-bit like the one over the index it was
// saved from.
func verifyLoadedIndex(g *graph.Graph, algo string, built, preload engine.Config, loadedG *graph.Graph, sources []int32) error {
	ctx := context.Background()
	if loadedG.Version() != g.Version() {
		return fmt.Errorf("snapshot graph version %#x != generated %#x", loadedG.Version(), g.Version())
	}
	want, err := engine.New(ctx, algo, g, built)
	if err != nil {
		return err
	}
	got, err := engine.New(ctx, algo, loadedG, preload)
	if err != nil {
		return fmt.Errorf("loaded index rejected: %w", err)
	}
	for _, u := range sources {
		ws, err := want.SingleSource(ctx, graph.NodeID(u), nil)
		if err != nil {
			return err
		}
		gs, err := got.SingleSource(ctx, graph.NodeID(u), nil)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ws, gs) {
			return fmt.Errorf("loaded %s index diverges from rebuild at source %d", algo, u)
		}
	}
	return nil
}
