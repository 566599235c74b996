package sling

import (
	"reflect"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func flatTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	edges, err := gen.ErdosRenyi(48, 160, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(48, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFlatBitIdentical is the flat-path oracle: an index imported
// through Flatten/ImportFlat must answer every source bit-for-bit like
// the map-based index it came from, and export the same payload.
func TestFlatBitIdentical(t *testing.T) {
	g := flatTestGraph(t)
	built, err := Build(g, Options{DSamples: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := built.Export()
	flat, err := ImportFlat(g, p.Flatten(), true)
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		want, err := built.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := flat.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("flat scores differ from map scores at source %d", u)
		}
	}
	if flat.DistSize() != built.DistSize() {
		t.Fatalf("DistSize %d != %d", flat.DistSize(), built.DistSize())
	}
	if !reflect.DeepEqual(flat.Export(), p) {
		t.Fatal("flat re-export differs from original payload")
	}
}

func TestImportFlatRejectsCorruptShape(t *testing.T) {
	g := flatTestGraph(t)
	built, err := Build(g, Options{DSamples: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := built.Export().Flatten()

	mutate := map[string]func(f *Flat){
		"truncated dist offsets": func(f *Flat) { f.DistOff = f.DistOff[:len(f.DistOff)-1] },
		"non-monotone inv":       func(f *Flat) { f.InvOff = append([]int32(nil), f.InvOff...); f.InvOff[1] = -1 },
		"short origins":          func(f *Flat) { f.InvOrigins = f.InvOrigins[:len(f.InvOrigins)-1] },
		"short probs":            func(f *Flat) { f.InvProbs = f.InvProbs[:len(f.InvProbs)-1] },
	}
	for name, fn := range mutate {
		f := base
		fn(&f)
		if _, err := ImportFlat(g, f, false); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Semantic corruption passes the shape checks but not validate mode.
	f := base
	f.Probs = append([]float64(nil), f.Probs...)
	f.Probs[0] = 2
	if _, err := ImportFlat(g, f, true); err == nil {
		t.Error("out-of-range probability accepted under validate")
	}
	if _, err := ImportFlat(g, f, false); err != nil {
		t.Errorf("trusted import rejected shape-valid payload: %v", err)
	}
}

func TestFlatClose(t *testing.T) {
	g := flatTestGraph(t)
	built, err := Build(g, Options{DSamples: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ImportFlat(g, built.Export().Flatten(), false)
	if err != nil {
		t.Fatal(err)
	}
	released := 0
	ix.SetRelease(func() error { released++; return nil })
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if released != 1 {
		t.Fatalf("release ran %d times, want exactly once", released)
	}
}
