package sling

import (
	"reflect"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func erGraph(t testing.TB, directed bool) *graph.Graph {
	t.Helper()
	edges, err := gen.ErdosRenyi(48, 160, directed, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(48, directed, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFlatBitIdentical is the differential test of the flat index:
// Build must answer every source bit-for-bit like the map-based oracle
// (oracle_test.go), with the same d values and entry count, and an
// index re-imported from its Export must do the same and export the
// same arrays.
func TestFlatBitIdentical(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := erGraph(t, directed)
		opt := Options{DSamples: 24, Seed: 5}
		built, err := Build(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		oracle := oracleBuild(g, opt)
		imported, err := ImportFlat(g, built.Export(), true)
		if err != nil {
			t.Fatal(err)
		}
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			if built.D(u) != oracle.d[u] {
				t.Fatalf("directed=%v: d(%d) = %v, oracle %v", directed, u, built.D(u), oracle.d[u])
			}
			want := oracle.singleSource(u)
			for name, ix := range map[string]*Index{"built": built, "imported": imported} {
				got, err := ix.SingleSource(u)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("directed=%v: %s scores differ from the oracle at source %d", directed, name, u)
				}
			}
		}
		if built.DistSize() != oracle.distSize() || imported.DistSize() != oracle.distSize() {
			t.Fatalf("directed=%v: DistSize %d/%d, oracle %d", directed, built.DistSize(), imported.DistSize(), oracle.distSize())
		}
		if !reflect.DeepEqual(imported.Export(), built.Export()) {
			t.Fatalf("directed=%v: re-export differs from the built index's export", directed)
		}
	}
}

func TestImportFlatRejectsCorruptShape(t *testing.T) {
	g := erGraph(t, true)
	built, err := Build(g, Options{DSamples: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := built.Export()

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
	g := erGraph(t, true)
	built, err := Build(g, Options{DSamples: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ImportFlat(g, built.Export(), false)
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
