package bench

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func comparison(batch, store float64) *Comparison {
	c := &Comparison{}
	if batch > 0 {
		c.Batch = &ThroughputComparison{GeoMeanSpeedup: batch}
	}
	if store > 0 {
		c.Store = &StoreComparison{GeoMeanSpeedup: store}
	}
	return c
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	base := comparison(1.6, 2.6)
	fresh := comparison(1.5, 2.3)
	rows, rep, err := Check(base, fresh, 0.15)
	if err != nil {
		t.Fatalf("within-tolerance run failed: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("section %s flagged at ratio %.3f under tolerance 0.15", r.Section, r.Ratio)
		}
	}
	if rep == nil || len(rep.Rows) != 2 {
		t.Fatalf("report missing rows: %+v", rep)
	}
}

func TestCheckFailsOnRegression(t *testing.T) {
	base := comparison(1.6, 2.6)
	fresh := comparison(1.0, 2.6) // batch dropped 37%
	rows, _, err := Check(base, fresh, 0.15)
	if err == nil {
		t.Fatal("37% batch regression passed the gate")
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Fatalf("error does not name the regression: %v", err)
	}
	var bad int
	for _, r := range rows {
		if !r.OK {
			bad++
			if r.Section != "batch" {
				t.Errorf("wrong section flagged: %s", r.Section)
			}
		}
	}
	if bad != 1 {
		t.Fatalf("%d sections flagged, want 1", bad)
	}
}

// TestCheckFailsOnMissingSection: CI regenerates every section, so a
// section the baseline records but the fresh run lacks means an
// experiment stopped writing it; the gate must fail and name it, not
// grade the overlap and pass.
func TestCheckFailsOnMissingSection(t *testing.T) {
	base := comparison(1.6, 2.6)
	for _, tc := range []struct {
		fresh   *Comparison
		missing []string
	}{
		{comparison(1.6, 0), []string{"store"}},
		{comparison(0, 2.6), []string{"batch"}},
	} {
		rows, rep, err := Check(base, tc.fresh, 0.15)
		if err == nil {
			t.Fatalf("fresh run without %v passed the gate", tc.missing)
		}
		for _, name := range tc.missing {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error does not name missing section %q: %v", name, err)
			}
		}
		var got []string
		for _, r := range rows {
			if r.Missing {
				got = append(got, r.Section)
			}
		}
		if strings.Join(got, ",") != strings.Join(tc.missing, ",") {
			t.Errorf("missing rows %v, want %v", got, tc.missing)
		}
		if rep == nil || len(rep.Rows) != 2 {
			t.Errorf("report should list both baseline sections: %+v", rep)
		}
	}
	// A section only the fresh run has is not graded.
	rows, _, err := Check(comparison(1.6, 0), base, 0.15)
	if err != nil || len(rows) != 1 || rows[0].Section != "batch" {
		t.Errorf("extra fresh sections: rows %+v, err %v", rows, err)
	}
}

func TestCheckRejectsDegenerateInputs(t *testing.T) {
	base := comparison(1.6, 0)
	fresh := comparison(1.6, 0)
	if _, _, err := Check(base, fresh, 0); err == nil {
		t.Error("tolerance 0 accepted")
	}
	if _, _, err := Check(base, fresh, 1); err == nil {
		t.Error("tolerance 1 accepted")
	}
	// An empty baseline must fail loudly, not green-light everything.
	if _, _, err := Check(&Comparison{}, comparison(1.6, 2.6), 0.15); err == nil {
		t.Error("empty baseline produced a green gate")
	}
	if _, _, err := Check(&Comparison{}, &Comparison{}, 0.15); err == nil {
		t.Error("two empty comparisons produced a green gate")
	}
	// A recorded section with a non-positive geomean is corrupt.
	if _, _, err := Check(comparison(0, 2.6), &Comparison{Store: &StoreComparison{}}, 0.15); err == nil {
		t.Error("zero store geomean accepted")
	}
}

// TestMergeComparisonKeepsOtherSections: each experiment merges its own
// section; writing one must not drop the other.
func TestMergeComparisonKeepsOtherSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmp.json")
	if err := MergeComparison(path, func(c *Comparison) { c.Store = &StoreComparison{GeoMeanSpeedup: 2} }); err != nil {
		t.Fatal(err)
	}
	if err := MergeComparison(path, func(c *Comparison) { c.Batch = &ThroughputComparison{GeoMeanSpeedup: 1.7} }); err != nil {
		t.Fatal(err)
	}
	got, err := ReadComparison(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Store == nil || got.Store.GeoMeanSpeedup != 2 || got.Batch == nil || got.Batch.GeoMeanSpeedup != 1.7 {
		t.Fatalf("merged file lost a section: %+v", got)
	}
}

// TestReadComparisonRejectsForeignShapes: a file in another shape must
// neither be graded nor silently overwritten by a merge.
func TestReadComparisonRejectsForeignShapes(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadComparison(filepath.Join(dir, "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err %v, want os.ErrNotExist", err)
	}
	// A bare throughput section, as an old writer produced it.
	bare := filepath.Join(dir, "bare.json")
	body := `{"config": "x", "results": [], "geomean_speedup": 2.1}`
	if err := os.WriteFile(bare, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadComparison(bare); err == nil {
		t.Error("bare section parsed as a comparison file")
	}
	if err := MergeComparison(bare, func(c *Comparison) { c.Batch = &ThroughputComparison{} }); err == nil {
		t.Error("merge overwrote a file it could not parse")
	}
	if data, _ := os.ReadFile(bare); string(data) != body {
		t.Errorf("unparseable file was modified: %s", data)
	}
}
