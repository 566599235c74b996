package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
	"crashsim/internal/store"
	"crashsim/internal/temporal"
)

// kind is one operation type a workload issues.
type kind uint8

const (
	kindTopK      kind = iota // GET /topk
	kindSingle                // GET /singlesource
	kindBatch                 // POST /batch/singlesource
	kindTrend                 // CrashSim-T increasing-trend query
	kindThreshold             // CrashSim-T threshold query
	numKinds
)

var kindNames = [numKinds]string{"topk", "single", "batch", "trend", "threshold"}

func (k kind) String() string { return kindNames[k] }

// Fixed settings shared by every workload.
const (
	decay       = 0.6
	iterScale   = 0.02 // multiplier on the theory-derived n_r, as in internal/bench
	minIters    = 20   // serving iteration floor
	topK        = 10
	batchSize   = 4
	maxInFlight = 32 // admission budget; the workloads stay well below it
	defaultSeed = 1
	theta       = 0.1 // threshold query bound
)

// workload is one traffic mix: the input it generates, how the program
// is configured over it, and the shape of the load. It travels to the
// child processes as JSON, which is how tests shrink it.
type workload struct {
	Name string `json:"name"`
	// Profile and Scale pick the generated input (internal/gen);
	// Snapshots > 0 makes it a temporal history of that length.
	Profile   string  `json:"profile"`
	Scale     float64 `json:"scale"`
	Snapshots int     `json:"snapshots,omitempty"`
	// Index serves a PRSim index out of a mapped v2 snapshot instead of
	// reading an edge list.
	Index bool    `json:"index,omitempty"`
	Algo  string  `json:"algo"`
	Eps   float64 `json:"eps"`
	// Iterations fixes n_r; 0 derives it from Eps and iterScale.
	Iterations int   `json:"iterations,omitempty"`
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	// HotSet > 0 draws sources from the HotSet highest-degree nodes of
	// the giant component and warms them before the window; 0 draws
	// from the whole giant component.
	HotSet int `json:"hot_set,omitempty"`
	// Rate is the open-loop arrival rate per second; 0 runs a closed
	// loop with one client per CPU (serving) or one client (temporal).
	Rate float64 `json:"rate,omitempty"`
	// ZipfS skews source popularity (rank-Zipf); 0 draws uniformly.
	ZipfS float64           `json:"zipf_s,omitempty"`
	Mix   [numKinds]float64 `json:"mix"`
	Limit time.Duration     `json:"limit"`
}

// workloads are the benchmark's traffic mixes; README.md says why each
// was chosen.
var workloads = []workload{
	{
		Name: "serve-hot", Profile: "web-1m", Scale: 0.1, Algo: "crashsim", Eps: 0.25,
		CacheBytes: 1 << 30, HotSet: 8, Rate: 60, ZipfS: 1.1,
		Mix:   [numKinds]float64{kindTopK: 0.45, kindSingle: 0.45, kindBatch: 0.10},
		Limit: 250 * time.Millisecond,
	},
	{
		Name: "serve-cold", Profile: "web-1m", Scale: 0.03, Algo: "crashsim", Eps: 0.25, ZipfS: 1.1,
		Mix:   [numKinds]float64{kindTopK: 0.40, kindSingle: 0.40, kindBatch: 0.20},
		Limit: 5 * time.Second,
	},
	{
		Name: "serve-index", Profile: "web-1m", Scale: 0.5, Index: true, Algo: "prsim", Eps: 0.025,
		Iterations: minIters, CacheBytes: 64 << 20, Rate: 12, ZipfS: 0.8,
		Mix:   [numKinds]float64{kindTopK: 0.55, kindSingle: 0.30, kindBatch: 0.15},
		Limit: 500 * time.Millisecond,
	},
	{
		Name: "temporal", Profile: "as-733", Scale: 1, Snapshots: 15, Algo: "crashsim", Eps: 0.05,
		Mix:   [numKinds]float64{kindTrend: 0.5, kindThreshold: 0.5},
		Limit: 10 * time.Second,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) temporal() bool { return w.Snapshots > 0 }

// kinds lists the operation kinds the workload issues.
func (w workload) kinds() []kind {
	var out []kind
	for k, weight := range w.Mix {
		if weight > 0 {
			out = append(out, kind(k))
		}
	}
	return out
}

func (w workload) profile() (gen.Profile, error) {
	p, err := gen.ProfileByName(w.Profile)
	if err != nil {
		return p, err
	}
	p = p.Scaled(w.Scale)
	if w.temporal() {
		p = p.WithSnapshots(w.Snapshots)
	}
	return p, nil
}

// params are the estimator parameters for a graph with n nodes.
func (w workload) params(n int, seed uint64) core.Params {
	it := w.Iterations
	if it == 0 {
		nr := float64(core.DeriveIterations(decay, w.Eps, 0.01, core.DeriveLmax(decay), n)) * iterScale
		it = max(minIters, int(nr))
	}
	return core.Params{
		C: decay, Eps: w.Eps, Iterations: it, Workers: nproc(),
		Seed: rng.SeedString(fmt.Sprintf("benchmark/%s/params/%d", w.Name, seed)),
	}
}

// engineConfig mirrors server.New's mapping from core.Params, so an
// index built here is the one the server's backend accepts.
func engineConfig(p core.Params) engine.Config {
	return engine.Config{
		C: p.C, Eps: p.Eps, Delta: p.Delta, Iterations: p.Iterations,
		Workers: p.Workers, Seed: p.Seed,
	}
}

func inputSeed(w workload, seed uint64) uint64 {
	return rng.SeedString(fmt.Sprintf("benchmark/%s/input/%d", w.Name, seed))
}

// Input file names inside a run directory.
const (
	graphFile   = "graph.txt"
	indexFile   = "index.snap"
	historyFile = "history.txt"
)

// prepare generates the workload's input for seed into dir and returns
// its fingerprint (see fingerprint).
func prepare(ctx context.Context, w workload, seed uint64, dir string) (uint64, error) {
	prof, err := w.profile()
	if err != nil {
		return 0, err
	}
	if w.temporal() {
		tg, err := history(prof, inputSeed(w, seed))
		if err != nil {
			return 0, err
		}
		path := filepath.Join(dir, historyFile)
		if err := writeFile(path, func(wr io.Writer) error { return temporal.Write(wr, tg) }); err != nil {
			return 0, err
		}
		return fileHash(path)
	}
	g, err := prof.Static(inputSeed(w, seed))
	if err != nil {
		return 0, err
	}
	if !w.Index {
		return g.Version(), writeFile(filepath.Join(dir, graphFile), func(wr io.Writer) error {
			return graph.WriteEdgeList(wr, g)
		})
	}
	ix, err := engine.BuildPRSimIndex(ctx, g, engineConfig(w.params(g.NumNodes(), seed)))
	if err != nil {
		return 0, err
	}
	payload := ix.Export()
	return g.Version(), store.Write(filepath.Join(dir, indexFile), &store.Snapshot{
		Graph: g, Meta: store.Meta{Dataset: fmt.Sprintf("%s@%g/%d", w.Profile, w.Scale, seed), Tool: "benchmark"}, PRSim: &payload,
	})
}

// history evolves the profile's base graph with the profile's churn on
// round(ActiveFraction·(T−1)) of its T−1 transitions, evenly spaced, and
// leaves the rest quiet. The profile's own generator flips a coin per
// transition, and over a short history the number of changed
// transitions, and with it the cost of a query, varies fourfold between
// seeds.
func history(prof gen.Profile, seed uint64) (*temporal.Graph, error) {
	edges, err := prof.StaticEdges(seed)
	if err != nil {
		return nil, err
	}
	steps := prof.Snapshots - 1
	active := int(math.Round(prof.ActiveFraction * float64(steps)))
	churn, err := gen.Churn(prof.Nodes, prof.Directed, edges, gen.ChurnOptions{
		Snapshots: active + 1, AddRate: prof.ChurnRate, DelRate: prof.ChurnRate, ActiveFraction: 1, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	deltas := make([]temporal.Delta, steps)
	for i := range active {
		deltas[(2*i+1)*steps/(2*active)] = churn.Delta(i)
	}
	return temporal.New(prof.Nodes, prof.Directed, edges, deltas)
}

// fingerprint identifies the workload's input at seed without writing
// it: the graph's content version for static inputs, an FNV-64a hash of
// the history file for temporal ones.
func fingerprint(w workload, seed uint64) (uint64, error) {
	prof, err := w.profile()
	if err != nil {
		return 0, err
	}
	if w.temporal() {
		tg, err := history(prof, inputSeed(w, seed))
		if err != nil {
			return 0, err
		}
		h := fnv.New64a()
		if err := temporal.Write(h, tg); err != nil {
			return 0, err
		}
		return h.Sum64(), nil
	}
	g, err := prof.Static(inputSeed(w, seed))
	if err != nil {
		return 0, err
	}
	return g.Version(), nil
}

//go:embed inputs.json
var recordedInputs []byte

// checkInput compares fp, the fingerprint of the workload's input at
// the default seed, with the one recorded in inputs.json, so a change to
// internal/gen cannot silently change what a workload measures.
func checkInput(w workload, fp uint64) error {
	var rec map[string]string
	if err := json.Unmarshal(recordedInputs, &rec); err != nil {
		return fmt.Errorf("inputs.json: %w", err)
	}
	want, ok := rec[w.Name]
	if !ok {
		return fmt.Errorf("inputs.json records no input for workload %s", w.Name)
	}
	if got := fmt.Sprintf("%#016x", fp); got != want {
		return fmt.Errorf("input drift: %s at seed %d has fingerprint %s, inputs.json records %s",
			w.Name, defaultSeed, got, want)
	}
	return nil
}

// sourcePool orders the giant component of g by query popularity, Zipf
// rank 1 first: highest total degree first (node id breaks ties), so
// the popular sources are the hubs whatever the seed. A hot workload
// keeps only its HotSet head.
func sourcePool(w workload, g *graph.Graph) []graph.NodeID {
	pool := graph.GiantComponent(g)
	deg := func(v graph.NodeID) int { return g.InDegree(v) + g.OutDegree(v) }
	slices.SortStableFunc(pool, func(a, b graph.NodeID) int {
		if da, db := deg(a), deg(b); da != db {
			return db - da
		}
		return int(a - b)
	})
	if w.HotSet > 0 {
		pool = pool[:min(w.HotSet, len(pool))]
	}
	return pool
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func fileHash(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}
