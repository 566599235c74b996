package main

import (
	"path/filepath"
	"testing"

	"crashsim/internal/bench"
)

// TestStoreThenThroughputKeepsBothSections: store and throughput each
// merge their own section into the -kernel-json file, so running them
// one after the other leaves both, and the gate grades the batch
// section as batch.
func TestStoreThenThroughputKeepsBothSections(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "cmp.json")
	cfg := bench.Config{Scale: 0.01, Sources: 1, BatchSizes: []int{4}, IterScale: 0.01, Seed: 7}
	opt := options{kernelJSON: path}
	discard := func(*bench.Report) error { return nil }
	for _, name := range []string{"store", "throughput"} {
		if err := run(name, cfg, discard, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	cmp, err := bench.ReadComparison(path)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Store == nil || cmp.Batch == nil {
		t.Fatalf("sections lost: store %v, batch %v", cmp.Store != nil, cmp.Batch != nil)
	}
	rows, _, err := bench.Check(cmp, cmp, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, r := range rows {
		sections = append(sections, r.Section)
	}
	if len(rows) != 3 || rows[0].Section != "batch" || rows[0].Fresh != cmp.Batch.GeoMeanSpeedup {
		t.Fatalf("check rows %v, want batch, store, store-mapped with batch graded from the batch section", sections)
	}
}
