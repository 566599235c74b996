package prsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"crashsim/internal/graph"
)

// TestPayloadRoundTrip: an index warmed with lazy tail entries must
// export, import, and then answer every query bit-identically to the
// original — including hub attribution, which ImportFlat recomputes
// from the graph rather than trusting from the flat.
func TestPayloadRoundTrip(t *testing.T) {
	g := testGraph(t, 140, 800, 21)
	ix, err := Build(g, Options{HubFraction: 0.1, Iterations: 60, DSamples: 25, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ { // warm: the flat must carry tail tables too
		if _, err := ix.SingleSource(graph.NodeID(u)); err != nil {
			t.Fatal(err)
		}
	}
	f := ix.Export()
	if f.Opt.Workers != 0 {
		t.Errorf("exported Workers = %d, want 0 (runtime knob)", f.Opt.Workers)
	}
	loaded, err := ImportFlat(g, f, true)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HubCount() != ix.HubCount() {
		t.Errorf("HubCount = %d after import, want %d", loaded.HubCount(), ix.HubCount())
	}
	if loaded.IndexEntries() != ix.IndexEntries() {
		t.Errorf("IndexEntries = %d after import, want %d", loaded.IndexEntries(), ix.IndexEntries())
	}
	for u := 0; u < g.NumNodes(); u += 7 {
		want, err := ix.SingleSource(graph.NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.SingleSource(graph.NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("SingleSource(%d) differs between original and imported index", u)
		}
	}
	// A second export must reproduce the flat exactly (same tables,
	// plus whatever tails the verification queries above added — rebuilt
	// identically because tables are pure functions of (g, opt, w)).
	if !reflect.DeepEqual(loaded.Export(), ix.Export()) {
		t.Fatal("re-export after round trip differs from original export")
	}
}

// TestImportRejectsCorruptPayloads: every invariant the importer
// checks, violated one at a time on an otherwise valid flat. Options
// and shape rows must fail with validation off too; only the entry
// rows are left to the per-entry scan.
func TestImportRejectsCorruptPayloads(t *testing.T) {
	g := testGraph(t, 100, 600, 31)
	ix, err := Build(g, Options{HubFraction: 0.1, Iterations: 40, DSamples: 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SingleSource(0); err != nil {
		t.Fatal(err)
	}
	base := ix.Export()
	clone := func() Flat {
		f := base
		f.TableLevels = append([]int32(nil), base.TableLevels...)
		f.LevelCounts = append([]int32(nil), base.LevelCounts...)
		f.Origins = append([]graph.NodeID(nil), base.Origins...)
		f.Probs = append([]float64(nil), base.Probs...)
		f.D = append([]float64(nil), base.D...)
		return f
	}
	firstBuilt := -1
	for v, lv := range base.TableLevels {
		if lv != -1 {
			firstBuilt = v
			break
		}
	}
	if firstBuilt < 0 || len(base.LevelCounts) == 0 || len(base.Origins) < 2 {
		t.Fatal("exported flat too small to corrupt meaningfully")
	}

	cases := []struct {
		name    string
		corrupt func(*Flat)
		wantErr string
		entry   bool // caught only by the per-entry scan
	}{
		{"bad options", func(f *Flat) { f.Opt.C = 9 }, "decay factor", false},
		{"NaN eps", func(f *Flat) { f.Opt.Eps = math.NaN() }, "eps", false},
		// With Iterations 0, n_q is derived from Eps; a tiny Eps derives
		// more walks than an int holds.
		{"derived n_q overflows", func(f *Flat) { f.Opt.Iterations, f.Opt.Eps = 0, 1e-300 }, "Eps", false},
		{"derived n_q above bound", func(f *Flat) { f.Opt.Iterations, f.Opt.Eps = 0, 1e-4 }, "Eps", false},
		{"wrong node count", func(f *Flat) { f.TableLevels = f.TableLevels[:10] }, "sized for", false},
		{"levels above max depth", func(f *Flat) { f.TableLevels[firstBuilt] = int32(base.Opt.MaxDepth) + 1 }, "levels outside", false},
		{"levels below -1", func(f *Flat) { f.TableLevels[firstBuilt] = -2 }, "levels outside", false},
		{"level count mismatch", func(f *Flat) { f.LevelCounts = f.LevelCounts[:len(f.LevelCounts)-1] }, "tables declare", false},
		{"non-positive level count", func(f *Flat) { f.LevelCounts[0] = 0 }, "entry count", false},
		{"entry column mismatch", func(f *Flat) { f.Origins = f.Origins[:len(f.Origins)-1] }, "entry columns", false},
		{"d count mismatch", func(f *Flat) { f.D = f.D[:len(f.D)-1] }, "d values", false},
		{"origin out of range", func(f *Flat) { f.Origins[0] = graph.NodeID(g.NumNodes()) }, "out-of-range origin", true},
		{"origins not ascending", func(f *Flat) { f.Origins[0], f.Origins[1] = f.Origins[1], f.Origins[0] }, "strictly ascending", true},
		{"probability at 1", func(f *Flat) { f.Probs[0] = 1 }, "outside (0,1)", true},
		{"probability NaN", func(f *Flat) { f.Probs[0] = math.NaN() }, "outside (0,1)", true},
		{"d above 1", func(f *Flat) { f.D[0] = 1.5 }, "outside [0,1]", true},
		{"d NaN", func(f *Flat) { f.D[0] = math.NaN() }, "outside [0,1]", true},
	}
	for _, tc := range cases {
		for _, validate := range []bool{true, false} {
			if tc.entry && !validate {
				continue
			}
			f := clone()
			tc.corrupt(&f)
			if _, err := ImportFlat(g, f, validate); err == nil {
				t.Errorf("%s (validate=%v): corrupt flat accepted", tc.name, validate)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s (validate=%v): error %q does not mention %q", tc.name, validate, err, tc.wantErr)
			}
		}
	}

	// Confirm the pristine clone still imports, proving the corruptions
	// (not the harness) fail.
	if _, err := ImportFlat(g, clone(), true); err != nil {
		t.Fatalf("pristine clone rejected: %v", err)
	}
}
