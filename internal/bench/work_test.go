package bench

import (
	"context"
	"strings"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
)

// TestWorkMeter: Monte-Carlo work done between StartWork and Lines
// shows up as counter deltas in the rendered footer, and engine
// queries as a latency line counting only the window's queries.
func TestWorkMeter(t *testing.T) {
	w := StartWork()
	if _, err := core.SingleSource(graph.PaperExample(), 0, nil, core.Params{Iterations: 200, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	lines := w.Lines()
	if len(lines) == 0 {
		t.Fatal("no work lines after a single-source query")
	}
	if !strings.Contains(lines[0], "core.walks=") {
		t.Errorf("work line missing walk count: %q", lines[0])
	}
	if !strings.Contains(lines[0], "core.candidates=") {
		t.Errorf("work line missing candidate count: %q", lines[0])
	}

	est, err := engine.New(context.Background(), "crashsim", graph.PaperExample(), engine.Config{Iterations: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		w := StartWork()
		if _, err := est.SingleSource(context.Background(), 0, nil); err != nil {
			t.Fatal(err)
		}
		if lines := w.Lines(); len(lines) != 2 || !strings.Contains(lines[1], "over 1 queries") {
			t.Errorf("latency line missing or not windowed: %v", lines)
		}
	}

	// A fresh meter with no work in between renders nothing.
	if lines := StartWork().Lines(); len(lines) != 0 {
		t.Errorf("idle meter produced %v", lines)
	}
}
