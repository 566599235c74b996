// Command loadgen drives a running simserver with open-loop load and
// reports SLO percentiles. Unlike a closed-loop benchmark it keeps
// offering the target rate when the server slows down, and it charges
// every request's latency from its *scheduled* send time, so queueing
// delay under overload appears in the percentiles instead of being
// coordinated-omission'd away (see internal/load).
//
// The source pool is fetched from the server's /stats endpoint (all
// node ids, popularity-ordered by id) unless -pool-size caps it;
// sources are then drawn rank-Zipf. Typical use:
//
//	simserver -addr :8080 &
//	loadgen -url http://127.0.0.1:8080 -qps 200 -duration 30s
//	loadgen -url http://127.0.0.1:8080 -qps 500 -arrivals fixed \
//	  -mix-single 0.5 -mix-topk 0.4 -mix-batch 0.1 -json result.json
//
// Exit status is 0 when every response was 2xx or 429; any other
// response (or transport failure) exits 1 after printing samples.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"crashsim/internal/graph"
	"crashsim/internal/load"
)

func main() {
	url := flag.String("url", "", "base URL of the simserver under test (required)")
	qps := flag.Float64("qps", 100, "open-loop target arrival rate")
	duration := flag.Duration("duration", 10*time.Second, "arrival-scheduling window")
	arrivals := flag.String("arrivals", "poisson", "arrival process: poisson or fixed")
	mixSingle := flag.Float64("mix-single", 0.70, "relative weight of GET /singlesource")
	mixTopK := flag.Float64("mix-topk", 0.15, "relative weight of GET /topk")
	mixBatch := flag.Float64("mix-batch", 0.15, "relative weight of POST /batch/singlesource")
	k := flag.Int("k", 10, "result length per query")
	batchSize := flag.Int("batch-size", 16, "sources per batch request")
	zipfS := flag.Float64("zipf-s", 1.1, "rank-Zipf skew of source popularity (0 = uniform)")
	poolSize := flag.Int("pool-size", 0, "cap the source pool to the first N node ids (0 = all nodes)")
	seed := flag.Uint64("seed", 1, "schedule seed: same seed, same request stream")
	maxInFlight := flag.Int("max-inflight", 0, "client-side concurrent-request cap (default 4096)")
	jsonOut := flag.String("json", "", "write the machine-readable result to this file (\"-\" = stdout)")
	flag.Parse()
	if *url == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -url required")
		flag.Usage()
		os.Exit(2)
	}
	if *arrivals != "poisson" && *arrivals != "fixed" {
		fmt.Fprintf(os.Stderr, "loadgen: unknown -arrivals %q (want poisson or fixed)\n", *arrivals)
		os.Exit(2)
	}

	pool, err := fetchPool(*url, *poolSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	res, err := load.Run(context.Background(), load.Config{
		BaseURL:     *url,
		QPS:         *qps,
		Duration:    *duration,
		Poisson:     *arrivals == "poisson",
		Mix:         load.Mix{Single: *mixSingle, TopK: *mixTopK, Batch: *mixBatch},
		K:           *k,
		BatchSize:   *batchSize,
		Pool:        pool,
		ZipfS:       *zipfS,
		Seed:        *seed,
		MaxInFlight: *maxInFlight,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}

	ms := func(s float64) string { return fmt.Sprintf("%.1fms", s*1e3) }
	fmt.Printf("offered %d at %.4g qps (%s arrivals, %v): achieved %.1f qps\n",
		res.Offered, res.TargetQPS, *arrivals, *duration, res.AchievedQPS)
	fmt.Printf("  ok %d  shed %d (%.1f%%)  errors %d  by-kind %v\n",
		res.OK, res.Shed, res.ShedRate*100, res.Errors, res.ByKind)
	fmt.Printf("  latency (from scheduled send): p50 %s  p90 %s  p99 %s  p999 %s  max %s\n",
		ms(res.Latency.P50), ms(res.Latency.P90), ms(res.Latency.P99), ms(res.Latency.P999), ms(res.Latency.Max))
	fmt.Printf("  service (from actual send):    p50 %s  p90 %s  p99 %s  p999 %s  max %s\n",
		ms(res.Service.P50), ms(res.Service.P90), ms(res.Service.P99), ms(res.Service.P999), ms(res.Service.Max))

	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	}
	if res.Errors > 0 {
		for _, s := range res.ErrorSamples {
			fmt.Fprintf(os.Stderr, "loadgen: error sample: %s\n", s)
		}
		os.Exit(1)
	}
}

// fetchPool asks the server's /stats for its node count and returns
// the id-ordered source pool, optionally capped. Node ids double as
// popularity ranks for the Zipf draw; generated profiles allot low ids
// to early (hub-heavy) nodes, and -pool-size narrows traffic to a hot
// working set.
func fetchPool(baseURL string, capSize int) ([]graph.NodeID, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(baseURL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	var stats struct {
		Nodes int `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	if stats.Nodes <= 0 {
		return nil, fmt.Errorf("GET /stats: server reports %d nodes", stats.Nodes)
	}
	n := stats.Nodes
	if capSize > 0 && capSize < n {
		n = capSize
	}
	pool := make([]graph.NodeID, n)
	for i := range pool {
		pool[i] = graph.NodeID(i)
	}
	return pool, nil
}
