package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// requestWork is one request's work on the serving path: the objects
// and heap bytes the server allocates to answer it (request and
// recorder included, averaged over requestRuns), and the bytes of JSON
// it answers with. Encoded is exact; Allocs may exceed its row by
// max(2, 25%) and Bytes by 25%.
type requestWork struct {
	Allocs  float64
	Bytes   uint64
	Encoded int
}

// pinnedRequests is the request-path work table: cache hits over hepth
// at scale 0.05 (494 nodes) on the crashsim backend and on prsim, which
// has no native top-k, so its /topk ranks the cached result too;
// measured without -race.
var pinnedRequests = map[string]requestWork{
	"single-hit":       {Allocs: 49, Bytes: 8808, Encoded: 448},
	"topk-hit":         {Allocs: 46, Bytes: 8752, Encoded: 448},
	"batch-hit":        {Allocs: 65, Bytes: 11970, Encoded: 1781},
	"prsim/single-hit": {Allocs: 49, Bytes: 8810, Encoded: 448},
	"prsim/topk-hit":   {Allocs: 47, Bytes: 8744, Encoded: 448},
}

// requestRuns is the number of requests each row averages over.
const requestRuns = 20

// workRequest is one pinned request.
type workRequest struct {
	name, method, path, body string
}

// workServer builds a cached server of backend algo over hepth at
// scale and returns it with the pinned requests, from the graph's
// highest-degree nodes: a /singlesource, /topk and 4-source batch on
// crashsim, a /singlesource and /topk (named "prsim/…") on prsim. The
// idle collection's hooks are stubbed out: it runs at most once a
// second, so it belongs to no one request.
func workServer(t *testing.T, algo string, scale float64) (*Server, []workRequest) {
	t.Helper()
	p, err := gen.ProfileByName("hepth")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Scaled(scale).Static(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Graph:      g,
		Algo:       algo,
		Params:     core.Params{Iterations: 100, Seed: 7, Workers: 1},
		CacheBytes: 64 << 20,
		Metrics:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.gc.readCycles = func() uint64 { return 0 }
	s.gc.collect = func() {}
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	deg := func(v graph.NodeID) int { return g.InDegree(v) + g.OutDegree(v) }
	slices.SortStableFunc(nodes, func(a, b graph.NodeID) int { return deg(b) - deg(a) })
	u := nodes[0]
	single := workRequest{"single-hit", http.MethodGet, fmt.Sprintf("/singlesource?u=%d&k=10", u), ""}
	topk := workRequest{"topk-hit", http.MethodGet, fmt.Sprintf("/topk?u=%d&k=10", u), ""}
	if algo == "prsim" {
		single.name, topk.name = "prsim/single-hit", "prsim/topk-hit"
		return s, []workRequest{single, topk}
	}
	return s, []workRequest{single, topk,
		{"batch-hit", http.MethodPost, "/batch/singlesource",
			fmt.Sprintf(`{"sources":[%d,%d,%d,%d],"k":10}`, nodes[0], nodes[1], nodes[2], nodes[3])},
	}
}

// workRequests returns the pinned requests with the server each runs on.
func workRequests(t *testing.T) ([]*Server, []workRequest) {
	t.Helper()
	var servers []*Server
	var reqs []workRequest
	for _, algo := range []string{"crashsim", "prsim"} {
		s, rs := workServer(t, algo, 0.05)
		for _, r := range rs {
			servers = append(servers, s)
			reqs = append(reqs, r)
		}
	}
	return servers, reqs
}

// measureRequest serves r once to fill the cache, then measures it as a
// hit.
func measureRequest(t *testing.T, s *Server, r workRequest) requestWork {
	t.Helper()
	var encoded int
	serve := func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", r.name, rec.Code, rec.Body)
		}
		encoded = rec.Body.Len()
	}
	serve()
	runtime.GC()
	var w requestWork
	w.Allocs = testing.AllocsPerRun(requestRuns, serve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range requestRuns {
		serve()
	}
	runtime.ReadMemStats(&after)
	w.Bytes = (after.TotalAlloc - before.TotalAlloc) / requestRuns
	w.Encoded = encoded
	return w
}

// compareRequest returns one problem per field of got outside want's
// bounds, each starting with the field name.
func compareRequest(want, got requestWork) []string {
	var problems []string
	if got.Encoded != want.Encoded {
		problems = append(problems, fmt.Sprintf("Encoded %d, pinned %d", got.Encoded, want.Encoded))
	}
	if limit := want.Allocs + math.Max(2, want.Allocs/4); got.Allocs > limit {
		problems = append(problems, fmt.Sprintf("Allocs %.0f, pinned %.0f (limit %.0f)", got.Allocs, want.Allocs, limit))
	}
	if limit := want.Bytes + want.Bytes/4; got.Bytes > limit {
		problems = append(problems, fmt.Sprintf("Bytes %d, pinned %d (limit %d)", got.Bytes, want.Bytes, limit))
	}
	return problems
}

// TestRequestWork is the request-path work gate: a /singlesource hit, a
// /topk hit and a 4-source /batch/singlesource hit on crashsim, and a
// /singlesource and /topk hit on prsim, each allocate within their
// pinned row and answer with exactly its bytes. A change that lowers a
// count updates its row. Skipped under -race (see raceEnabled).
func TestRequestWork(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation rows are not checked under -race")
	}
	servers, reqs := workRequests(t)
	for i, r := range reqs {
		got := measureRequest(t, servers[i], r)
		want, ok := pinnedRequests[r.name]
		if !ok {
			t.Errorf("%s: no pinned row", r.name)
			continue
		}
		if problems := compareRequest(want, got); len(problems) > 0 {
			t.Errorf("%s: %s\n\tmeasured: %#v", r.name, strings.Join(problems, "; "), got)
		}
	}
}

// TestRequestWorkIsSizeIndependent: a /singlesource hit ranks the
// cached result in place, so it allocates the same bytes whatever the
// result's size. hepth at scale 0.2 has four times the nodes of scale
// 0.05 and a larger result per source; the slack absorbs the longer
// node ids and score digits in the response.
func TestRequestWorkIsSizeIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation rows are not checked under -race")
	}
	const byteSlack = 512
	var bytes []uint64
	for _, scale := range []float64{0.05, 0.2} {
		s, reqs := workServer(t, "crashsim", scale)
		bytes = append(bytes, measureRequest(t, s, reqs[0]).Bytes)
	}
	t.Logf("/singlesource hit: %v bytes at scale 0.05 and 0.2", bytes)
	if bytes[1] > bytes[0]+byteSlack {
		t.Errorf("a /singlesource hit allocates %d bytes at scale 0.05 and %d at 0.2 (slack %d)", bytes[0], bytes[1], byteSlack)
	}
}

// cloning hides the cached estimator behind its public calls, which
// hand out clones, so engine.Ranked answers by ranking a fresh copy of
// every cached result: the per-hit copy the request-path gate exists to
// catch.
type cloning struct{ engine.Estimator }

func (c cloning) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	return engine.MultiSource(ctx, c.Estimator, sources)
}

// TestRequestWorkCatchesClone seeds a copy of the cached result back
// into the ranked hit path and requires the gate to reject every row
// that ranks a cached result on its bytes: all but crashsim's /topk.
func TestRequestWorkCatchesClone(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation rows are not checked under -race")
	}
	servers, reqs := workRequests(t)
	for _, s := range servers {
		if _, ok := s.est.(cloning); !ok {
			s.est = cloning{s.est}
		}
	}
	for i, r := range reqs {
		if r.name == "topk-hit" {
			continue // crashsim ranks top-k natively; no result map to copy
		}
		got := measureRequest(t, servers[i], r)
		problems := compareRequest(pinnedRequests[r.name], got)
		named := false
		for _, p := range problems {
			named = named || strings.HasPrefix(p, "Bytes ")
		}
		if !named {
			t.Errorf("%s: gate passed a cloned hit path: %#v (%v)", r.name, got, problems)
		} else {
			t.Logf("%s rejected: %s", r.name, strings.Join(problems, "; "))
		}
	}
}
