// Command crashsim answers SimRank queries from the command line.
//
// Static single-source query (edge-list file or generated profile):
//
//	crashsim -graph wiki.txt -source 3 -topk 10
//	crashsim -profile hepth -scale 0.05 -source 3 -algo probesim
//
// Single-pair, top-k and batched multi-source queries:
//
//	crashsim -graph wiki.txt -source 3 -pair 17
//	crashsim -graph wiki.txt -source 3 -algo topk -topk 10
//	crashsim -graph wiki.txt -batch 3,17,3 -topk 5
//
// Temporal queries over a temporal edge-list file:
//
//	crashsim -temporal as.tgraph -source 3 -query threshold -theta 0.05
//	crashsim -temporal as.tgraph -source 3 -query trend -direction increasing
//	crashsim -temporal as.tgraph -source 3 -query durable -topk 10
//
// Index persistence (sling, reads and prsim backends): -save-index builds the
// index, snapshots graph + index to a file (internal/store format v3) and
// answers the query; -load-index answers the query from a snapshot —
// graph included, so no -graph/-profile is needed — after verifying
// checksums, graph identity and the recorded index options, whose
// parameters the answer then uses. Both paths go through the engine's
// one per-backend table (engine.BuildIndex, engine.ImportIndex), the
// same one simserver -index-dir and gendata -save-index use. -verify-index additionally rebuilds
// the index from the snapshot's own graph and insists on bit-identical
// single-source scores, exiting nonzero on any divergence (CI runs
// this across build/load process boundaries to catch format drift):
//
//	crashsim -profile hepth -scale 0.05 -algo sling -save-index hepth.snap -source 3
//	crashsim -algo sling -load-index hepth.snap -source 3
//	crashsim -algo sling -load-index hepth.snap -verify-index
//
// Without -mmap the snapshot is read onto the heap and fully verified
// (every checksum, the graph, every index section); -mmap serves it
// zero-copy out of a read-only file mapping through the same decoder
// instead, hashing each section as it is imported. Combined with
// -verify-index the mapped sections are checksummed and semantically
// validated eagerly, so the command doubles as an integrity check of
// the mapped path:
//
//	crashsim -algo sling -load-index hepth.snap -mmap -source 3
//	crashsim -algo sling -load-index hepth.snap -mmap -verify-index
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"crashsim"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/store"
)

func main() {
	var (
		graphFile    = flag.String("graph", "", "static edge-list file")
		temporalFile = flag.String("temporal", "", "temporal edge-list file")
		profile      = flag.String("profile", "", "generate a dataset profile instead of reading a file")
		scale        = flag.Float64("scale", 0.05, "profile scale")
		statsOnly    = flag.Bool("stats", false, "print graph statistics and exit (static only)")
		source       = flag.Int("source", 0, "query source node")
		pairNode     = flag.Int("pair", -1, "second node for a single-pair query (static only)")
		batch        = flag.String("batch", "", "comma-separated sources for one batched multi-source query (static only)")
		algo         = flag.String("algo", "crashsim", "static algorithm: "+strings.Join(crashsim.EstimatorNames(), ", ")+", or topk")
		query        = flag.String("query", "threshold", "temporal query: threshold, trend, or durable")
		theta        = flag.Float64("theta", 0.05, "threshold θ")
		direction    = flag.String("direction", "increasing", "trend direction: increasing or decreasing")
		slack        = flag.Float64("slack", 0.025, "trend slack (noise tolerance)")
		topk         = flag.Int("topk", 10, "number of results to print")
		eps          = flag.Float64("eps", 0.025, "error bound ε")
		c            = flag.Float64("c", 0.6, "decay factor")
		iters        = flag.Int("iters", 2000, "Monte-Carlo iterations (0 = theory-derived)")
		seed         = flag.Uint64("seed", 42, "random seed")
		repeat       = flag.Int("repeat", 1, "run the static query this many times (with -cache-bytes, repeats hit the result cache)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "enable a query-result cache of this capacity for static queries (0 = off)")
		cacheTTL     = flag.Duration("cache-ttl", 0, "result-cache entry lifetime (0 = no age bound)")
		saveIndex    = flag.String("save-index", "", "build the index (sling/reads/prsim) and write a graph+index snapshot to this file")
		loadIndex    = flag.String("load-index", "", "answer from a graph+index snapshot instead of building (no -graph/-profile needed)")
		verifyIndex  = flag.Bool("verify-index", false, "with -load-index: rebuild from the snapshot's graph and require bit-identical scores")
		useMmap      = flag.Bool("mmap", false, "with -load-index: serve zero-copy from a file mapping (eager verification when -verify-index is set)")
		hubFraction  = flag.Float64("hub-fraction", 0, "prsim: fraction of nodes (by in-degree rank) indexed eagerly (0 = default 0.05)")
	)
	flag.Parse()

	opt := crashsim.Options{C: *c, Eps: *eps, Iterations: *iters, Seed: *seed}
	cc := cacheConfig{bytes: *cacheBytes, ttl: *cacheTTL, repeat: *repeat}
	var err error
	switch {
	case *saveIndex != "" || *loadIndex != "":
		err = runIndexed(*graphFile, *profile, *scale, *source, *algo, *topk,
			*saveIndex, *loadIndex, *verifyIndex, *useMmap, *hubFraction, opt)
	case *statsOnly:
		err = runStats(*graphFile, *profile, *scale, opt.Seed)
	case *temporalFile != "":
		err = runTemporal(*temporalFile, *source, *query, *theta, *direction, *slack, *topk, opt)
	case *pairNode >= 0:
		err = runPair(*graphFile, *profile, *scale, *source, *pairNode, opt)
	case *batch != "":
		err = runBatch(*graphFile, *profile, *scale, *batch, *algo, *topk, opt)
	default:
		err = runStatic(*graphFile, *profile, *scale, *source, *algo, *topk, cc, opt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashsim: %v\n", err)
		os.Exit(1)
	}
}

func loadStatic(graphFile, profile string, scale float64, seed uint64) (*crashsim.Graph, error) {
	switch {
	case graphFile != "":
		f, err := os.Open(graphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return crashsim.LoadGraph(f)
	case profile != "":
		p, err := crashsim.Dataset(profile)
		if err != nil {
			return nil, err
		}
		return crashsim.GenerateStatic(p, scale, seed)
	default:
		return nil, fmt.Errorf("need -graph, -profile or -temporal")
	}
}

// cacheConfig carries the CLI's result-cache settings: with a
// non-zero byte budget, repeated runs of the same query (-repeat) are
// served from the cache after the first, demonstrating the serving
// layer's amortization from the command line.
type cacheConfig struct {
	bytes  int64
	ttl    time.Duration
	repeat int
}

func runStatic(graphFile, profile string, scale float64, source int, algo string, topk int, cc cacheConfig, opt crashsim.Options) error {
	g, err := loadStatic(graphFile, profile, scale, opt.Seed)
	if err != nil {
		return err
	}
	u := crashsim.NodeID(source)
	ctx := context.Background()
	fmt.Printf("graph: n=%d m=%d directed=%t\n", g.NumNodes(), g.NumEdges(), g.Directed())

	// "-algo topk" is the top-k query on the default backend; every other
	// value dispatches through the engine registry uniformly.
	backend := algo
	if algo == "topk" {
		backend = "crashsim"
	}
	buildStart := time.Now()
	var est crashsim.Estimator
	if cc.bytes > 0 {
		est, err = crashsim.NewCachedEstimator(ctx, backend, g, opt,
			crashsim.CacheOptions{MaxBytes: cc.bytes, TTL: cc.ttl})
	} else {
		est, err = crashsim.NewEstimator(ctx, backend, g, opt)
	}
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)
	if cc.repeat < 1 {
		cc.repeat = 1
	}

	for run := 0; run < cc.repeat; run++ {
		label := algo
		if cc.repeat > 1 {
			label = fmt.Sprintf("%s run %d/%d", algo, run+1, cc.repeat)
		}
		start := time.Now()
		if algo == "topk" {
			ranked, err := crashsim.EstimatorTopK(ctx, est, u, topk)
			if err != nil {
				return err
			}
			fmt.Printf("top-%d from node %d in %v (setup %v)\n",
				topk, source, time.Since(start).Round(time.Microsecond), buildTime.Round(time.Microsecond))
			if run < cc.repeat-1 {
				continue // print the ranking once, after the last run
			}
			for rank, r := range ranked {
				fmt.Printf("%3d. node %-8d sim=%.5f\n", rank+1, r.Node, r.Score)
			}
			continue
		}
		scores, err := est.SingleSource(ctx, u, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%s single-source from node %d in %v (setup %v)\n",
			label, source, time.Since(start).Round(time.Microsecond), buildTime.Round(time.Microsecond))
		if run < cc.repeat-1 {
			continue
		}
		for rank, v := range crashsim.TopSimilar(scores, u, topk) {
			fmt.Printf("%3d. node %-8d sim=%.5f\n", rank+1, v, scores[v])
		}
	}
	return nil
}

// runIndexed is the index-persistence path for the index-based
// backends (engine.IndexBackends): build + snapshot (-save-index), or
// answer from a snapshot (-load-index), optionally proving the loaded
// index bit-identical to a rebuild (-verify-index). When loading, the
// index parameters come from the snapshot itself — the graph travels
// inside it, so the command is self-contained.
func runIndexed(graphFile, profile string, scale float64, source int, algo string, topk int,
	save, load string, verify, useMmap bool, hubFraction float64, opt crashsim.Options) error {
	if !slices.Contains(engine.IndexBackends(), algo) {
		return fmt.Errorf("-save-index/-load-index need an index-based backend (%s), got %q",
			strings.Join(engine.IndexBackends(), ", "), algo)
	}
	if load != "" && save != "" {
		return fmt.Errorf("-save-index and -load-index are mutually exclusive")
	}
	if verify && load == "" {
		return fmt.Errorf("-verify-index needs -load-index")
	}
	if useMmap && load == "" {
		return fmt.Errorf("-mmap needs -load-index")
	}
	ctx := context.Background()
	ecfg := engine.Config{
		C: opt.C, Eps: opt.Eps, Delta: opt.Delta,
		Iterations: opt.Iterations, Workers: opt.Workers, Seed: opt.Seed,
		HubFraction: hubFraction,
	}

	var g *crashsim.Graph
	if load != "" {
		start := time.Now()
		open, how := store.Load, "read, crc eager"
		if useMmap {
			policy := store.VerifyOnLoadSection
			if verify {
				policy = store.VerifyEager
			}
			open = func(path string) (*store.Mapped, error) {
				return store.OpenMapped(path, store.MapOptions{Verify: policy})
			}
			how = fmt.Sprintf("mapped, crc %s", policy)
		}
		mp, err := open(load)
		if err != nil {
			return err
		}
		g = mp.Graph()
		fmt.Printf("snapshot %s: graph n=%d m=%d version=%#x (%s, %d bytes in %v)\n",
			load, g.NumNodes(), g.NumEdges(), g.Version(), how, mp.MappedBytes(),
			time.Since(start).Round(time.Microsecond))
		importStart := time.Now()
		// Adopt the parameters the snapshot records, so the answer (and
		// -verify-index's rebuild) uses the snapshot's own settings.
		if err := engine.ImportIndex(mp, algo, g, &ecfg, true); err != nil {
			return err
		}
		fmt.Printf("imported %s index in %v\n", algo, time.Since(importStart).Round(time.Microsecond))
		if err := verifyLoaded(ctx, verify, algo, g, ecfg); err != nil {
			return err
		}
	} else {
		var err error
		if g, err = loadStatic(graphFile, profile, scale, opt.Seed); err != nil {
			return err
		}
		fmt.Printf("graph: n=%d m=%d directed=%t version=%#x\n", g.NumNodes(), g.NumEdges(), g.Directed(), g.Version())
		snap := &store.Snapshot{
			Graph: g,
			Meta:  store.Meta{Dataset: datasetSpec(graphFile, profile, scale, opt.Seed), Tool: "crashsim", CreatedUnix: time.Now().Unix()},
		}
		buildStart := time.Now()
		if err := engine.BuildIndex(ctx, algo, g, &ecfg, snap); err != nil {
			return err
		}
		fmt.Printf("built %s index in %v\n", algo, time.Since(buildStart).Round(time.Microsecond))
		if err := store.Write(save, snap); err != nil {
			return err
		}
		fmt.Printf("wrote snapshot %s\n", save)
	}

	est, err := engine.New(ctx, algo, g, ecfg)
	if err != nil {
		return err
	}
	u := crashsim.NodeID(source)
	start := time.Now()
	scores, err := est.SingleSource(ctx, u, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%s single-source from node %d in %v\n", algo, source, time.Since(start).Round(time.Microsecond))
	for rank, v := range crashsim.TopSimilar(scores, u, topk) {
		fmt.Printf("%3d. node %-8d sim=%.5f\n", rank+1, v, scores[v])
	}
	return nil
}

// verifyLoaded rebuilds the index from the snapshot's own graph with
// the snapshot's recorded parameters and insists every node's
// single-source scores are bit-identical to the loaded index's — the
// cross-process equivalence check CI runs against a snapshot built in
// a separate step.
func verifyLoaded(ctx context.Context, verify bool, algo string, g *crashsim.Graph, ecfg engine.Config) error {
	if !verify {
		return nil
	}
	start := time.Now()
	loaded, err := engine.New(ctx, algo, g, ecfg)
	if err != nil {
		return err
	}
	rcfg := ecfg
	rcfg.SlingIndex, rcfg.ReadsIndex, rcfg.PRSimIndex = nil, nil, nil
	rebuilt, err := engine.New(ctx, algo, g, rcfg)
	if err != nil {
		return fmt.Errorf("verify: rebuilding: %w", err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		want, err := rebuilt.SingleSource(ctx, crashsim.NodeID(u), nil)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		have, err := loaded.SingleSource(ctx, crashsim.NodeID(u), nil)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if len(want) != len(have) {
			return fmt.Errorf("verify FAILED: source %d: %d scores rebuilt vs %d loaded", u, len(want), len(have))
		}
		for v, s := range want {
			if hs, ok := have[v]; !ok || hs != s {
				return fmt.Errorf("verify FAILED: source %d node %d: rebuilt %v, loaded %v", u, v, s, hs)
			}
		}
	}
	fmt.Printf("verify: loaded %s index bit-identical to rebuild across %d sources (%v)\n",
		algo, g.NumNodes(), time.Since(start).Round(time.Millisecond))
	return nil
}

// datasetSpec names the dataset for snapshot metadata.
func datasetSpec(graphFile, profile string, scale float64, seed uint64) string {
	if graphFile != "" {
		return graphFile
	}
	return fmt.Sprintf("%s@%g/%d", profile, scale, seed)
}

// runBatch answers one batched multi-source query: every listed source
// (duplicates kept, as a request batcher would send them) goes through
// the engine's MultiSource entry point — the batched pipeline on
// backends with a native batch mode, a sequential loop elsewhere — and
// prints each source's top-k.
func runBatch(graphFile, profile string, scale float64, batch, algo string, topk int, opt crashsim.Options) error {
	g, err := loadStatic(graphFile, profile, scale, opt.Seed)
	if err != nil {
		return err
	}
	var sources []crashsim.NodeID
	for _, field := range strings.Split(batch, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(field), "%d", &v); err != nil {
			return fmt.Errorf("bad -batch entry %q: %w", field, err)
		}
		sources = append(sources, crashsim.NodeID(v))
	}
	ctx := context.Background()
	fmt.Printf("graph: n=%d m=%d directed=%t\n", g.NumNodes(), g.NumEdges(), g.Directed())
	est, err := crashsim.NewEstimator(ctx, algo, g, opt)
	if err != nil {
		return err
	}
	start := time.Now()
	results, err := crashsim.EstimatorMultiSource(ctx, est, sources)
	if err != nil {
		return err
	}
	fmt.Printf("%s batch of %d sources in %v\n", algo, len(sources), time.Since(start).Round(time.Microsecond))
	for i, u := range sources {
		fmt.Printf("source %d:\n", u)
		for rank, v := range crashsim.TopSimilar(results[i], u, topk) {
			fmt.Printf("%3d. node %-8d sim=%.5f\n", rank+1, v, results[i][v])
		}
	}
	return nil
}

func runStats(graphFile, profile string, scale float64, seed uint64) error {
	g, err := loadStatic(graphFile, profile, scale, seed)
	if err != nil {
		return err
	}
	s := graph.ComputeStats(g)
	_, components := graph.Components(g)
	giant := len(graph.GiantComponent(g))
	fmt.Printf("nodes:            %d\n", s.Nodes)
	fmt.Printf("edges:            %d\n", s.Edges)
	fmt.Printf("directed:         %t\n", s.Directed)
	fmt.Printf("mean in-degree:   %.2f\n", s.MeanInDeg)
	fmt.Printf("median in-degree: %d\n", s.MedianInDeg)
	fmt.Printf("max in-degree:    %d\n", s.MaxInDeg)
	fmt.Printf("max out-degree:   %d\n", s.MaxOutDeg)
	fmt.Printf("dangling (in):    %d\n", s.DanglingIn)
	fmt.Printf("dangling (out):   %d\n", s.DanglingOut)
	fmt.Printf("components:       %d (giant covers %d nodes)\n", components, giant)
	return nil
}

func runPair(graphFile, profile string, scale float64, source, pair int, opt crashsim.Options) error {
	g, err := loadStatic(graphFile, profile, scale, opt.Seed)
	if err != nil {
		return err
	}
	start := time.Now()
	s, err := crashsim.SinglePair(g, crashsim.NodeID(source), crashsim.NodeID(pair), opt)
	if err != nil {
		return err
	}
	fmt.Printf("sim(%d,%d) = %.5f  (%v)\n", source, pair, s, time.Since(start).Round(time.Microsecond))
	return nil
}

func runTemporal(file string, source int, query string, theta float64, direction string, slack float64, topk int, opt crashsim.Options) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	tg, err := crashsim.LoadTemporal(f)
	if err != nil {
		return err
	}

	if query == "durable" {
		start := time.Now()
		ranked, err := crashsim.DurableTopK(tg, crashsim.NodeID(source), topk, opt)
		if err != nil {
			return err
		}
		fmt.Printf("temporal graph: n=%d snapshots=%d\n", tg.NumNodes(), tg.NumSnapshots())
		fmt.Printf("durable top-%d from node %d in %v\n", topk, source, time.Since(start).Round(time.Millisecond))
		for rank, r := range ranked {
			fmt.Printf("%3d. node %-8d min-sim=%.5f\n", rank+1, r.Node, r.MinScore)
		}
		return nil
	}

	var q crashsim.TemporalQuery
	switch query {
	case "threshold":
		q = crashsim.ThresholdQuery(theta)
	case "trend":
		dir := crashsim.Increasing
		if direction == "decreasing" {
			dir = crashsim.Decreasing
		} else if direction != "increasing" {
			return fmt.Errorf("unknown trend direction %q", direction)
		}
		q = crashsim.TrendQuery(dir, slack)
	default:
		return fmt.Errorf("unknown query %q (want threshold, trend, or durable)", query)
	}

	start := time.Now()
	res, err := crashsim.QueryTemporal(tg, crashsim.NodeID(source), q, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("temporal graph: n=%d snapshots=%d\n", tg.NumNodes(), tg.NumSnapshots())
	fmt.Printf("%s query from node %d in %v\n", q.Name(), source, elapsed.Round(time.Millisecond))
	fmt.Printf("pruning: evaluated=%d reused-delta=%d reused-diff=%d stable-tree-steps=%d\n",
		res.Stats.Evaluated, res.Stats.ReusedDelta, res.Stats.ReusedDiff, res.Stats.TreeStableSteps)
	fmt.Printf("result set (%d nodes):\n", len(res.Omega))
	for _, v := range res.Omega {
		fmt.Printf("  node %-8d final-sim=%.5f\n", v, res.Final[v])
	}
	return nil
}
