package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/load"
	"crashsim/internal/obs"
	"crashsim/internal/rng"
	"crashsim/internal/server"
)

// ServingRung is one rung of the open-loop rate ladder: the server is
// offered TargetQPS for the rung's window and the rung records what
// came back. Latency percentiles are charged from each request's
// scheduled send time (see internal/load), so a saturated rung shows
// its queueing delay instead of hiding it.
type ServingRung struct {
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	Offered     int     `json:"offered"`
	OK          int     `json:"ok"`
	// Shed counts 429s — the admission gate rejecting load it cannot
	// serve within the in-flight budget. A healthy saturated server
	// sheds; it does not error.
	Shed     int     `json:"shed"`
	Errors   int     `json:"errors"`
	ShedRate float64 `json:"shed_rate"`
	// Latency is scheduled-send to completion (queueing included);
	// Service is actual-send to completion. Seconds, like all obs
	// snapshots.
	Latency obs.QuantileSnapshot `json:"latency"`
	Service obs.QuantileSnapshot `json:"service"`
}

// ServingComparison is the whole ladder: BENCH_serving.json.
type ServingComparison struct {
	Config      string        `json:"config"`
	Profile     string        `json:"profile"`
	Nodes       int           `json:"nodes"`
	Edges       int           `json:"edges"`
	Iterations  int           `json:"iterations"`
	MaxInFlight int           `json:"max_inflight"`
	Rungs       []ServingRung `json:"rungs"`
}

// WriteJSON renders the ladder as indented JSON.
func (s *ServingComparison) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Serving runs the open-loop SLO ladder: an in-process server.Server
// on the serving profile, offered each Config.ServingRates rung for
// ServingDuration by the internal/load generator (Poisson arrivals,
// Zipf sources, the default read mix). Rungs run lowest rate first so
// earlier rungs double as warm-up for the connection pool and the
// query cache, the same order a real capacity probe uses.
//
// Any response that is neither 2xx nor 429 fails the run: on a
// read-only workload the server has no excuse for a 4xx/5xx, so CI
// treats one as a bug, not as load. The ladder is still returned so
// the caller can persist the evidence.
func Serving(cfg Config) (*ServingComparison, *Report, error) {
	cfg = cfg.WithDefaults()
	prof, err := gen.ProfileByName(cfg.ServingProfile)
	if err != nil {
		return nil, nil, err
	}
	prof = prof.Scaled(cfg.ServingScale)
	seed := rng.SeedString(fmt.Sprintf("serving/%s/%d", prof.Name, cfg.Seed))
	g, err := prof.Static(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: generating %s: %w", prof.Name, err)
	}
	n := g.NumNodes()
	iters := cfg.crashIters(n, cfg.ServingEps)
	srv, err := server.New(server.Config{
		Graph:       g,
		Params:      core.Params{C: cfg.C, Iterations: iters, Seed: seed},
		MaxInFlight: cfg.ServingMaxInFlight,
		CacheBytes:  cfg.ServingCacheBytes,
		Metrics:     obs.NewRegistry(),
	})
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Popularity order for the Zipf draw: giant-component hubs first
	// (highest total degree), capped to the hot working set. Hot
	// sources are then the *expensive* nodes — the ones whose fan-outs
	// and result sets are largest — so cache pressure is real, not an
	// artifact of hammering cheap leaves.
	pool := hotPool(g, cfg.ServingHotSet)

	// Warm-up: touch every hot source once through both read endpoints
	// before the first rung, untimed. First-touch misses cost seconds
	// of Monte-Carlo work each; paying them inside rung 1 would make
	// the rungs incomparable (each rung would measure a different
	// cache state instead of a different rate).
	if err := warmup(ts.URL, pool); err != nil {
		return nil, nil, fmt.Errorf("bench: serving warmup: %w", err)
	}

	cmp := &ServingComparison{
		Config: fmt.Sprintf("profile=%s scale=%g rates=%v duration=%v max-inflight=%d cache=%dMiB hot-set=%d zipf-s=%g mix=single:%g/topk:%g/batch:%g batch-size=%d serving-eps=%g iter-scale=%.3g c=%.2g seed=%d",
			cfg.ServingProfile, cfg.ServingScale, cfg.ServingRates, cfg.ServingDuration,
			cfg.ServingMaxInFlight, cfg.ServingCacheBytes>>20, len(pool), cfg.ServingZipfS,
			cfg.ServingMix.Single, cfg.ServingMix.TopK, cfg.ServingMix.Batch,
			cfg.ServingBatchSize, cfg.ServingEps, cfg.IterScale, cfg.C, cfg.Seed),
		Profile:     prof.Name,
		Nodes:       n,
		Edges:       g.NumEdges(),
		Iterations:  iters,
		MaxInFlight: cfg.ServingMaxInFlight,
	}
	var failures []string
	for _, rate := range cfg.ServingRates {
		res, err := load.Run(context.Background(), load.Config{
			BaseURL:   ts.URL,
			QPS:       rate,
			Duration:  cfg.ServingDuration,
			Poisson:   true,
			Mix:       cfg.ServingMix,
			BatchSize: cfg.ServingBatchSize,
			Pool:      pool,
			ZipfS:     cfg.ServingZipfS,
			Seed:      rng.SeedString(fmt.Sprintf("serving/%s/rate=%g/%d", prof.Name, rate, cfg.Seed)),
		})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: serving rung %g qps: %w", rate, err)
		}
		cmp.Rungs = append(cmp.Rungs, ServingRung{
			TargetQPS:   res.TargetQPS,
			AchievedQPS: res.AchievedQPS,
			Offered:     res.Offered,
			OK:          res.OK,
			Shed:        res.Shed,
			Errors:      res.Errors,
			ShedRate:    res.ShedRate,
			Latency:     res.Latency,
			Service:     res.Service,
		})
		if res.Errors > 0 {
			failures = append(failures, fmt.Sprintf("rung %g qps: %d non-2xx/non-429 responses (%s)",
				rate, res.Errors, strings.Join(res.ErrorSamples, "; ")))
		}
	}

	rep := &Report{
		Title: "Open-loop serving ladder: SLO percentiles vs offered rate",
		Notes: []string{cmp.Config,
			"latency charged from scheduled send time (coordinated-omission-free); shed = 429s from admission control"},
		Columns: []string{"target-qps", "achieved", "ok", "shed%", "p50", "p90", "p99", "p999", "max"},
	}
	ms := func(s float64) string { return fmt.Sprintf("%.1fms", s*1e3) }
	for _, r := range cmp.Rungs {
		rep.AddRow(fmt.Sprintf("%g", r.TargetQPS), fmt.Sprintf("%.1f", r.AchievedQPS),
			fmt.Sprint(r.OK), fmt.Sprintf("%.1f", r.ShedRate*100),
			ms(r.Latency.P50), ms(r.Latency.P90), ms(r.Latency.P99), ms(r.Latency.P999), ms(r.Latency.Max))
	}
	rep.Footer = append(rep.Footer,
		fmt.Sprintf("graph: %s n=%d m=%d iterations=%d", prof.Name, n, cmp.Edges, iters))
	if len(failures) > 0 {
		return cmp, rep, fmt.Errorf("bench: serving ladder saw unexpected errors:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return cmp, rep, nil
}

// hotPool returns the giant component ordered hubs-first (descending
// total degree, node id as tie-break for determinism), capped to the
// hot working-set size. cap <= 0 keeps the whole component.
func hotPool(g *graph.Graph, capSize int) []graph.NodeID {
	pool := graph.GiantComponent(g)
	if len(pool) == 0 {
		pool = make([]graph.NodeID, g.NumNodes())
		for v := range pool {
			pool[v] = graph.NodeID(v)
		}
	}
	sort.SliceStable(pool, func(i, j int) bool {
		di := g.InDegree(pool[i]) + g.OutDegree(pool[i])
		dj := g.InDegree(pool[j]) + g.OutDegree(pool[j])
		if di != dj {
			return di > dj
		}
		return pool[i] < pool[j]
	})
	if capSize > 0 && len(pool) > capSize {
		pool = pool[:capSize]
	}
	return pool
}

// warmup primes the server's query cache: one single-source and one
// top-k query per hot source, sequentially (the admission gate always
// admits an idle server). Any non-200 is fatal — a server that cannot
// answer unloaded sequential reads has no business being load-tested.
func warmup(baseURL string, pool []graph.NodeID) error {
	client := &http.Client{Timeout: 5 * time.Minute}
	for _, u := range pool {
		for _, path := range []string{
			fmt.Sprintf("/singlesource?u=%d&k=10", u),
			fmt.Sprintf("/topk?u=%d&k=10", u),
		} {
			resp, err := client.Get(baseURL + path)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s: status %d", path, resp.StatusCode)
			}
		}
	}
	return nil
}
