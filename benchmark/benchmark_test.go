package main

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"crashsim/internal/engine"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

// TestMain lets the test binary stand in for the benchmark binary when
// run spawns its child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "--child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload so one traced run takes a few seconds.
func tiny(w workload) workload {
	if w.temporal() {
		w.Scale, w.Snapshots = 0.05, 5
		return w
	}
	w.Scale = 0.005
	w.HotSet = min(w.HotSet, 4)
	if w.Rate > 0 {
		w.Rate = 100 // enough batches in a 2 s window for their median
	}
	return w
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			ok, err := run(tiny(w), 3, 2*time.Second, true, traceOut, exe, false)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("a correctness check failed; see the output above")
			}
			buf, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(buf, &tr); err != nil {
				t.Fatal(err)
			}
			if len(tr.TraceEvents) == 0 {
				t.Fatal("trace file holds no events")
			}
		})
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "server.single", start: 0, end: 100 * ms},
		{name: "engine.single", parent: 1, start: 10 * ms, end: 50 * ms},
		{name: "core.revreach", parent: 2, start: 10 * ms, end: 20 * ms},
		{name: "core.estimate", parent: 2, start: 15 * ms, end: 45 * ms},  // overlaps its sibling
		{name: "engine.single", parent: 1, start: 40 * ms, end: 70 * ms},  // overlaps the first
		{name: "engine.single", parent: 1, start: 90 * ms, end: 120 * ms}, // outlives the parent
	}
	got := selfTimes(spans)
	want := []time.Duration{100*ms - 60*ms - 10*ms, 40*ms - 35*ms, 10 * ms, 30 * ms, 30 * ms, 30 * ms}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTracedBackendsMatchWrapped(t *testing.T) {
	prof, err := gen.ProfileByName("web-1m")
	if err != nil {
		t.Fatal(err)
	}
	g, err := prof.Scaled(0.002).Static(5)
	if err != nil {
		t.Fatal(err)
	}
	registerTraced(newTracer())
	ctx := context.Background()
	cfg := engine.Config{Eps: 0.25, Iterations: 20, Workers: 2, Seed: 9}
	ix, err := engine.BuildPRSimIndex(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PRSimIndex = ix
	sources := []graph.NodeID{0, 3, 0, 7}
	for _, base := range []string{"crashsim", "prsim"} {
		want, err := engine.New(ctx, base, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.New(ctx, base+traceSuffix, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c1, c2 := capabilities(want), capabilities(got); c1 != c2 {
			t.Fatalf("%s: traced backend has capabilities %v, wrapped one %v", base, c2, c1)
		}
		s1, err := want.SingleSource(ctx, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := got.SingleSource(ctx, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, base+" single", s1, s2)
		m1, err := engine.MultiSource(ctx, want, sources)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := engine.MultiSource(ctx, got, sources)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m1 {
			sameScores(t, base+" batch", m1[i], m2[i])
		}
		k1, err := engine.TopK(ctx, want, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := engine.TopK(ctx, got, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(k1, k2) {
			t.Fatalf("%s top-k: traced %v, wrapped %v", base, k2, k1)
		}
	}
}

func capabilities(e engine.Estimator) [3]bool {
	_, topk := e.(engine.TopKer)
	_, pair := e.(engine.Pairer)
	_, multi := e.(engine.MultiSourcer)
	return [3]bool{topk, pair, multi}
}

func sameScores(t *testing.T, what string, a, b map[graph.NodeID]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d scores", what, len(a), len(b))
	}
	for v, s := range a {
		if math.Float64bits(b[v]) != math.Float64bits(s) {
			t.Fatalf("%s: node %d scores %v vs %v", what, v, b[v], s)
		}
	}
}

func TestPlanHasExactKindCounts(t *testing.T) {
	w := workloads[0]
	pool := []graph.NodeID{5, 6, 7, 8}
	reqs, err := plan(w, 1, 401, pool, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var counts [numKinds]int
	for i, r := range reqs {
		counts[r.kind]++
		if want := map[bool]int{true: batchSize, false: 1}[r.kind == kindBatch]; len(r.sources) != want {
			t.Fatalf("request %d (%s) has %d sources", i, r.kind, len(r.sources))
		}
		if r.at < 0 || r.at >= 10*time.Second || (i > 0 && r.at < reqs[i-1].at) {
			t.Fatalf("request %d sent at %v, out of order or outside the window", i, r.at)
		}
	}
	if counts[kindTopK]+counts[kindSingle]+counts[kindBatch] != 401 || counts[kindBatch] != 40 {
		t.Fatalf("kind counts %v", counts)
	}
	again, err := plan(w, 1, 401, pool, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if reqs[i].kind != again[i].kind || reqs[i].at != again[i].at || !slices.Equal(reqs[i].sources, again[i].sources) {
			t.Fatalf("plan is not deterministic at request %d", i)
		}
	}
}

// TestLoadSplitsByKind drives a fake h2c server with a fixed delay per
// path: each kind's median is its own delay, shed batches count as
// shed and never enter a served percentile, and every request shares
// one connection.
func TestLoadSplitsByKind(t *testing.T) {
	delay := map[string]time.Duration{"/topk": 2 * time.Millisecond, "/singlesource": 20 * time.Millisecond}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/batch/singlesource" {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		time.Sleep(delay[r.URL.Path])
	})
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: h, Protocols: &protos}
	go hs.Serve(ln)
	defer hs.Close()
	c := newClient("http://" + ln.Addr().String())
	defer c.close()

	reqs, err := plan(workloads[0], 2, 200, []graph.NodeID{1, 2, 3}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	out, _, _ := openLoop(context.Background(), reqs, c.send)
	stats := summarize(out)
	total := 0
	for k, ks := range stats {
		total += ks.offered
		if ks.served+ks.shed+ks.errors != ks.offered || len(ks.lat) != ks.served {
			t.Fatalf("%s: counts do not add up: %+v", kind(k), ks)
		}
	}
	if total != len(reqs) {
		t.Fatalf("per-kind offered sums to %d, %d sent", total, len(reqs))
	}
	if b := stats[kindBatch]; b.shed != b.offered || b.served != 0 {
		t.Fatalf("batches: %+v, want all shed", b)
	}
	for path, k := range map[string]kind{"/topk": kindTopK, "/singlesource": kindSingle} {
		p50, ok := percentile(stats[k].lat, 0.5)
		if !ok || p50 < delay[path] || p50 > delay[path]+15*time.Millisecond {
			t.Fatalf("%s p50 %v (floor met: %v), want just above %v", k, p50, ok, delay[path])
		}
	}
	if d := c.dials.Load(); d != 1 {
		t.Fatalf("%d connections dialed, want 1", d)
	}
}

func TestPercentileFloor(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 19; i++ {
		xs = append(xs, time.Duration(i))
	}
	if _, ok := percentile(xs, 0.5); ok {
		t.Fatal("19 samples meet the p50 floor")
	}
	xs = append(xs, 20)
	if v, ok := percentile(xs, 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v (floor met: %v), want 10", v, ok)
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Fatal("20 samples meet the p90 floor")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code's workload
// and metric lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.Name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(names), len(workloads))
	}
	check := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", what, i, got[i], metric{d.name, d.unit, d.better})
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
