package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/graph"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{
		Graph:  graph.PaperExample(),
		Params: core.Params{Iterations: 300, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: bad JSON %q: %v", path, rec.Body.String(), err)
	}
	return rec, body
}

func TestHealth(t *testing.T) {
	rec, body := get(t, testServer(t), "/health")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("health: %d %v", rec.Code, body)
	}
}

func TestStats(t *testing.T) {
	rec, body := get(t, testServer(t), "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if body["nodes"].(float64) != 8 || body["edges"].(float64) != 15 {
		t.Errorf("stats body: %v", body)
	}
}

func TestSingleSource(t *testing.T) {
	rec, body := get(t, testServer(t), "/singlesource?u=0&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("singlesource: %d %v", rec.Code, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	prev := 2.0
	for _, r := range results {
		m := r.(map[string]any)
		score := m["score"].(float64)
		if score > prev {
			t.Error("results not sorted by score")
		}
		prev = score
		if m["node"].(float64) == 0 {
			t.Error("source included in results")
		}
	}
}

func TestPair(t *testing.T) {
	rec, body := get(t, testServer(t), "/pair?u=0&v=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("pair: %d %v", rec.Code, body)
	}
	score := body["score"].(float64)
	if score <= 0 || score > 1 {
		t.Errorf("pair score %g implausible", score)
	}
	// Identical pair scores 1.
	_, body = get(t, testServer(t), "/pair?u=2&v=2")
	if body["score"].(float64) != 1 {
		t.Errorf("self pair: %v", body)
	}
}

func TestTopK(t *testing.T) {
	rec, body := get(t, testServer(t), "/topk?u=0&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("topk: %d %v", rec.Code, body)
	}
	if len(body["results"].([]any)) != 2 {
		t.Errorf("topk results: %v", body)
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t)
	cases := []string{
		"/singlesource",          // missing u
		"/singlesource?u=99",     // out of range
		"/singlesource?u=x",      // not a number
		"/singlesource?u=0&k=-1", // bad k
		"/pair?u=0",              // missing v
		"/topk?u=-1",             // negative
	}
	for _, path := range cases {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (%v)", path, rec.Code, body)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error message", path)
		}
	}
}

func TestKCapping(t *testing.T) {
	s, err := New(Config{
		Graph:  graph.PaperExample(),
		Params: core.Params{Iterations: 50, Seed: 1},
		MaxK:   2,
		// DefaultK left 0 -> defaults to 10 > MaxK -> must error.
	})
	if err == nil {
		_ = s
		t.Fatal("DefaultK above MaxK accepted")
	}
	s, err = New(Config{
		Graph:    graph.PaperExample(),
		Params:   core.Params{Iterations: 50, Seed: 1},
		DefaultK: 2,
		MaxK:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, body := get(t, s, "/singlesource?u=0&k=100")
	if got := len(body["results"].([]any)); got != 2 {
		t.Errorf("k not capped: %d results", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(Config{Graph: graph.PaperExample(), Params: core.Params{C: 9}}); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := New(Config{Graph: graph.PaperExample(), Algo: "nope"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestAllBackends serves every registered engine backend through the
// same handler and checks the three query endpoints answer.
func TestAllBackends(t *testing.T) {
	for _, algo := range []string{"crashsim", "probesim", "sling", "reads", "exact"} {
		s, err := New(Config{
			Graph:  graph.PaperExample(),
			Algo:   algo,
			Params: core.Params{Iterations: 100, Seed: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if s.Algo() != algo {
			t.Errorf("Algo() = %q, want %q", s.Algo(), algo)
		}
		rec, body := get(t, s, "/health")
		if rec.Code != http.StatusOK || body["algo"] != algo {
			t.Errorf("%s: health %d %v", algo, rec.Code, body)
		}
		for _, path := range []string{"/singlesource?u=0&k=3", "/pair?u=0&v=3", "/topk?u=0&k=2"} {
			rec, body := get(t, s, path)
			if rec.Code != http.StatusOK {
				t.Errorf("%s %s: %d %v", algo, path, rec.Code, body)
			}
		}
	}
}

// TestCanceledRequest: a client disconnect (canceled request context)
// aborts the estimate and returns 503.
func TestCanceledRequest(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/singlesource?u=0", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("canceled request: code %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
}

// TestRequestTimeout: a server-side deadline shorter than the query
// aborts it and returns 503.
func TestRequestTimeout(t *testing.T) {
	s, err := New(Config{
		Graph:   graph.PaperExample(),
		Params:  core.Params{Iterations: 1 << 24, Seed: 1},
		Timeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, body := get(t, s, "/singlesource?u=0")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("timed-out request: code %d, want 503 (%v)", rec.Code, body)
	}
}
