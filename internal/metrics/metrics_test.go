package metrics

import (
	"math"
	"reflect"
	"testing"
	"time"

	"crashsim/internal/graph"
)

func TestMaxError(t *testing.T) {
	truth := []float64{1, 0.5, 0.2, 0}
	est := map[graph.NodeID]float64{0: 1, 1: 0.4, 2: 0.25}
	// node 3 absent from est: |0 - 0| = 0; worst is node 1 at 0.1.
	if got := MaxError(truth, est); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("MaxError = %g, want 0.1", got)
	}
	if got := MaxError(nil, est); got != 0 {
		t.Errorf("empty truth gives %g, want 0", got)
	}
	// Sparse estimate missing a node with positive truth.
	if got := MaxError([]float64{0.3}, map[graph.NodeID]float64{}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("missing node treated wrong: %g", got)
	}
}

func TestPrecision(t *testing.T) {
	cases := []struct {
		truth, got []graph.NodeID
		want       float64
	}{
		{[]graph.NodeID{1, 2, 3}, []graph.NodeID{1, 2, 3}, 1},
		{[]graph.NodeID{1, 2, 3}, []graph.NodeID{1, 2}, 2.0 / 3},
		{[]graph.NodeID{1, 2}, []graph.NodeID{1, 2, 3, 4}, 2.0 / 4},
		{[]graph.NodeID{1}, []graph.NodeID{2}, 0},
		{nil, nil, 1},
		{nil, []graph.NodeID{5}, 0},
	}
	for i, tc := range cases {
		if got := Precision(tc.truth, tc.got); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("case %d: Precision = %g, want %g", i, got, tc.want)
		}
	}
}

func TestTopK(t *testing.T) {
	scores := map[graph.NodeID]float64{0: 1, 1: 0.9, 2: 0.5, 3: 0.9, 4: 0.1}
	// Source excluded; ties (1 and 3 at 0.9) broken by id. Four nodes
	// rank, so k = len is 4; k <= 0 must not panic and ranks nothing.
	for _, tc := range []struct {
		k    int
		want []graph.NodeID
	}{
		{-1, []graph.NodeID{}},
		{0, []graph.NodeID{}},
		{1, []graph.NodeID{1}},
		{3, []graph.NodeID{1, 3, 2}},
		{4, []graph.NodeID{1, 3, 2, 4}},
		{4 + 5, []graph.NodeID{1, 3, 2, 4}},
	} {
		if got := TopK(scores, 0, tc.k); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("TopK(k=%d) = %v, want %v", tc.k, got, tc.want)
		}
	}
	if got := TopK(nil, 0, 5); len(got) != 0 {
		t.Errorf("empty scores returned %v", got)
	}
}

func TestSummarizeTimes(t *testing.T) {
	samples := []time.Duration{4 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	s := SummarizeTimes(samples)
	if s.Count != 4 || s.Total != 10*time.Millisecond || s.Mean != 2500*time.Microsecond {
		t.Errorf("summary wrong: %+v", s)
	}
	if s.Max != 4*time.Millisecond {
		t.Errorf("Max = %v", s.Max)
	}
	if s.P50 != 2*time.Millisecond {
		t.Errorf("P50 = %v", s.P50)
	}
	if z := SummarizeTimes(nil); z.Count != 0 || z.Mean != 0 {
		t.Errorf("empty summary: %+v", z)
	}
}

func TestMeanFloat(t *testing.T) {
	if got := MeanFloat([]float64{1, 2, 3}); got != 2 {
		t.Errorf("MeanFloat = %g", got)
	}
	if got := MeanFloat(nil); got != 0 {
		t.Errorf("MeanFloat(nil) = %g", got)
	}
}
