package graph

import "testing"

func TestComputeStats(t *testing.T) {
	g := PaperExample()
	s := ComputeStats(g)
	if s.Nodes != 8 || s.Edges != 15 || !s.Directed {
		t.Errorf("basic stats wrong: %+v", s)
	}
	if s.MaxInDeg != 3 { // I(C) = {A, B, D}
		t.Errorf("MaxInDeg = %d, want 3", s.MaxInDeg)
	}
	if s.DanglingIn != 0 {
		t.Errorf("DanglingIn = %d, want 0 (every example node has an in-neighbor)", s.DanglingIn)
	}
	if want := 15.0 / 8.0; s.MeanInDeg != want {
		t.Errorf("MeanInDeg = %g, want %g", s.MeanInDeg, want)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g, _ := NewBuilder(0, true).Freeze()
	s := ComputeStats(g)
	if s.Nodes != 0 || s.Edges != 0 {
		t.Errorf("empty stats: %+v", s)
	}
}
