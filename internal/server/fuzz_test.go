package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// FuzzHandlers drives the query endpoints through httptest with raw
// fuzzed inputs: the u, v and k strings of /singlesource, /topk and
// /pair, and the body of POST /batch/singlesource. Whatever the input,
// a handler must not panic and must answer 200, 400 or 429 with a body
// that decodes as JSON. On 200 a list carries at most the effective k
// results (k clamped to MaxK, DefaultK when k is empty) and every node
// it names is in range.
func FuzzHandlers(f *testing.F) {
	for _, seed := range []struct{ u, v, k, body string }{
		{"0", "3", "3", `{"sources":[0,3,0],"k":3}`},
		{"", "", "", ``},
		{"abc", "-1", "-2", `{"sources":[]}`},
		{"7", "8", "5000", `{"sources":[99,-1,1],"k":5000}`},
		{"+3", "03", "1e3", `{"sources":[0,1,2,3,4,5,6,7,0],"k":0}`},
		{" 1", "2147483648", "2", `{"sources":[1],"k":-1}`},
		{"1", "1", "0x10", `[1,2]`},
	} {
		f.Add(seed.u, seed.v, seed.k, []byte(seed.body))
	}
	g := graph.PaperExample()
	n := g.NumNodes()
	const defaultK, maxK = 3, 5
	s, err := New(Config{
		Graph:       g,
		Params:      core.Params{Iterations: 20, Seed: 1},
		DefaultK:    defaultK,
		MaxK:        maxK,
		MaxBatch:    8,
		MaxInFlight: 4,
		Metrics:     obs.NewRegistry(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, u, v, k string, body []byte) {
		serve := func(method, target string, in io.Reader, out any) int {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(method, target, in))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests:
			default:
				t.Fatalf("%s %s: status %d, body %q", method, target, rec.Code, rec.Body.String())
			}
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatalf("%s %s: status %d, body %q is not JSON: %v", method, target, rec.Code, rec.Body.String(), err)
			}
			return rec.Code
		}
		checkList := func(where string, k int, results []scoredNode) {
			if len(results) > k {
				t.Fatalf("%s: %d results for k %d", where, len(results), k)
			}
			for _, r := range results {
				if r.Node < 0 || int(r.Node) >= n {
					t.Fatalf("%s: node %d out of range [0,%d)", where, r.Node, n)
				}
			}
		}

		// The effective k of the GET endpoints; 0 when k must be refused.
		effK := defaultK
		if k != "" {
			if x, err := strconv.Atoi(k); err != nil || x < 1 {
				effK = 0
			} else {
				effK = min(x, maxK)
			}
		}
		for _, path := range []string{"/singlesource", "/topk"} {
			target := path + "?" + url.Values{"u": {u}, "k": {k}}.Encode()
			var out struct {
				K       int          `json:"k"`
				Results []scoredNode `json:"results"`
			}
			if serve(http.MethodGet, target, nil, &out) != http.StatusOK {
				continue
			}
			if effK == 0 || out.K != effK {
				t.Fatalf("%s: answered with k %d, want %d", target, out.K, effK)
			}
			checkList(target, out.K, out.Results)
		}

		pair := "/pair?" + url.Values{"u": {u}, "v": {v}}.Encode()
		var p struct {
			U int `json:"u"`
			V int `json:"v"`
		}
		if serve(http.MethodGet, pair, nil, &p) == http.StatusOK && (p.U < 0 || p.U >= n || p.V < 0 || p.V >= n) {
			t.Fatalf("%s: pair (%d, %d) out of range [0,%d)", pair, p.U, p.V, n)
		}

		var batch struct {
			K     int         `json:"k"`
			Items []batchItem `json:"items"`
		}
		if serve(http.MethodPost, "/batch/singlesource", bytes.NewReader(body), &batch) != http.StatusOK {
			return
		}
		if batch.K < 1 || batch.K > maxK {
			t.Fatalf("batch %q: answered with k %d, want 1..%d", body, batch.K, maxK)
		}
		for _, it := range batch.Items {
			inRange := it.Source >= 0 && it.Source < int64(n)
			if inRange != (it.Error == "") {
				t.Fatalf("batch %q: source %d has error %q", body, it.Source, it.Error)
			}
			checkList("batch "+strconv.Quote(string(body)), batch.K, it.Results)
		}
	})
}
