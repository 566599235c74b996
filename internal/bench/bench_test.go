package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// quickConfig keeps harness tests fast: tiny graphs, few sources.
func quickConfig() Config {
	return Config{
		Scale:            0.01,
		TemporalScale:    0.008,
		Fig7Scale:        0.01,
		Sources:          2,
		Snapshots:        3,
		Fig7Snapshots:    []int{3, 5},
		Epsilons:         []float64{0.1, 0.025},
		GroundTruthIters: 30,
		SlingDSamples:    40,
		ReadsR:           50,
		IterScale:        0.02,
		Seed:             7,
	}
}

func TestTable2MatchesDefinition(t *testing.T) {
	scores, rep, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if scores["A"] != 1 {
		t.Errorf("sim(A,A) = %g, want 1", scores["A"])
	}
	for label, s := range scores {
		if s < 0 || s > 1 {
			t.Errorf("sim(A,%s) = %g outside [0,1]", label, s)
		}
	}
	if len(rep.Rows) != 8 {
		t.Errorf("Table II has %d rows, want 8", len(rep.Rows))
	}
	var buf bytes.Buffer
	if err := rep.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table II") {
		t.Error("rendered report missing title")
	}
}

func TestTable3ListsAllDatasets(t *testing.T) {
	rep, err := Table3(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("Table III has %d rows, want 5", len(rep.Rows))
	}
	var buf bytes.Buffer
	if err := rep.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"as-733", "as-caida", "wiki-vote", "hepth", "hepph"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("Table III missing dataset %s", name)
		}
	}
}

func TestExample2Report(t *testing.T) {
	rep, err := Example2()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The paper's tree probabilities must appear in the rendering.
	for _, want := range []string{"0.2500", "0.1667", "0.0625", "0.0417", "0.0156", "0.0104", "0.0521"} {
		if !strings.Contains(out, want) {
			t.Errorf("Example 2 report missing probability %s:\n%s", want, out)
		}
	}
}

func TestFig5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	results, rep, err := Fig5(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 5 datasets × (2 crashsim ε + probesim + sling + reads) rows.
	if want := 5 * 5; len(results) != want {
		t.Fatalf("Fig5 produced %d cells, want %d", len(results), want)
	}
	for _, r := range results {
		if r.MeanTime <= 0 {
			t.Errorf("%s/%s: non-positive time", r.Dataset, r.Algorithm)
		}
		if math.IsNaN(r.MeanME) || r.MeanME < 0 || r.MeanME > 1 {
			t.Errorf("%s/%s: ME %g out of range", r.Dataset, r.Algorithm, r.MeanME)
		}
	}
	if len(rep.Rows) != len(results) {
		t.Errorf("report rows %d != results %d", len(rep.Rows), len(results))
	}
}

func TestFig6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	results, rep, err := Fig6(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 5 datasets × 2 queries × 4 engines.
	if want := 5 * 2 * 4; len(results) != want {
		t.Fatalf("Fig6 produced %d cells, want %d", len(results), want)
	}
	for _, r := range results {
		if r.Precision < 0 || r.Precision > 1 {
			t.Errorf("%s/%s/%s: precision %g out of range", r.Dataset, r.Query, r.Engine, r.Precision)
		}
	}
	if len(rep.Rows) != len(results) {
		t.Error("report row count mismatch")
	}
}

func TestFig7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	results, rep, err := Fig7(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 2 interval lengths × 4 engines.
	if want := 2 * 4; len(results) != want {
		t.Fatalf("Fig7 produced %d cells, want %d", len(results), want)
	}
	// Per engine, time must grow with the interval length.
	totals := map[string][]int64{}
	for _, r := range results {
		totals[r.Engine] = append(totals[r.Engine], int64(r.TotalTime))
	}
	for engine, ts := range totals {
		if len(ts) != 2 {
			t.Errorf("%s measured %d points", engine, len(ts))
		}
	}
	if len(rep.Rows) != len(results) {
		t.Error("report row count mismatch")
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	est, err := AblationEstimator(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Rows) != 6 {
		t.Errorf("estimator ablation has %d rows, want 6", len(est.Rows))
	}
	pr, err := AblationPruning(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Rows) != 4 {
		t.Errorf("pruning ablation has %d rows, want 4", len(pr.Rows))
	}
}

func TestExtraQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	rep, err := Extra(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Errorf("extra comparison has %d rows, want 8", len(rep.Rows))
	}
	var buf bytes.Buffer
	if err := rep.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, algo := range []string{"crashsim", "probesim", "sling", "reads", "tsf", "fogaras-mc", "prsim", "linsim"} {
		if !strings.Contains(out, algo) {
			t.Errorf("CSV missing algorithm %s", algo)
		}
	}
	if !strings.HasPrefix(out, "# Extra") {
		t.Error("CSV missing title comment")
	}
}

func TestScalingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	cfg := quickConfig()
	results, rep, err := Scaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 { // 4 scales × 2 algorithms
		t.Fatalf("scaling produced %d points, want 8", len(results))
	}
	for _, r := range results {
		if r.MeanTime <= 0 || r.Nodes <= 0 {
			t.Errorf("bad point %+v", r)
		}
	}
	if len(rep.Footer) == 0 {
		t.Error("scaling report missing chart footer")
	}
}

func TestFig7ThresholdVariant(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	cfg := quickConfig()
	cfg.Fig7Query = "threshold"
	results, rep, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	var buf bytes.Buffer
	if err := rep.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "threshold") {
		t.Error("report does not mention the threshold query")
	}
	cfg.Fig7Query = "bogus"
	if _, _, err := Fig7(cfg); err == nil {
		t.Error("unknown fig7 query accepted")
	}
}

func TestMemoryQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	rep, err := Memory(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("memory report has %d rows, want 5", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row) != 7 {
			t.Errorf("row %v has %d cells", row, len(row))
		}
	}
}

func TestThroughputQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	cfg := quickConfig()
	cfg.BatchSizes = []int{4}
	cmp, rep, err := Throughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5; len(cmp.Results) != want { // 5 datasets × 1 batch size
		t.Fatalf("throughput produced %d rows, want %d", len(cmp.Results), want)
	}
	for _, r := range cmp.Results {
		if r.Batch != 4 || r.UniqueSources < 1 || r.UniqueSources > r.Batch {
			t.Errorf("%s: bad batch accounting %+v", r.Dataset, r)
		}
		if r.SequentialQPS <= 0 || r.BatchQPS <= 0 || r.Speedup <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Dataset, r)
		}
	}
	if cmp.GeoMeanSpeedup <= 0 || math.IsNaN(cmp.GeoMeanSpeedup) {
		t.Errorf("geomean speedup = %g", cmp.GeoMeanSpeedup)
	}
	if len(rep.Rows) != len(cmp.Results) {
		t.Error("report row count mismatch")
	}
	// The batch section rides inside Comparison as "batch".
	var buf bytes.Buffer
	if err := (&Comparison{Batch: cmp}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"batch"`, `"batch_qps"`, `"unique_sources"`, `"geomean_speedup"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON missing %s", key)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale != 0.05 || c.Sources != 5 || c.C != 0.6 || c.Seed == 0 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if len(c.Fig7Snapshots) != 4 || c.Fig7Snapshots[3] != 700 {
		t.Errorf("fig7 snapshot defaults wrong: %v", c.Fig7Snapshots)
	}
	if got := c.crashIters(1000, 0.025); got < 20 {
		t.Errorf("crashIters = %d", got)
	}
	if got := c.probeIters(1000, 0.025); got < 20 {
		t.Errorf("probeIters = %d", got)
	}
	// Floor applies for absurdly loose eps.
	if got := c.crashIters(10, 0.9); got != 20 {
		t.Errorf("crashIters floor = %d, want 20", got)
	}
}

func TestStoreQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	cmp, rep, err := Store(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * 2; len(cmp.Results) != want { // 5 Table III datasets + web-1m, × {sling, reads}
		t.Fatalf("store produced %d rows, want %d", len(cmp.Results), want)
	}
	for _, r := range cmp.Results {
		if r.Algo != "sling" && r.Algo != "reads" {
			t.Errorf("%s: unexpected algo %q", r.Dataset, r.Algo)
		}
		if r.BuildMS <= 0 || r.SaveMS <= 0 || r.LoadMS <= 0 || r.Bytes <= 0 {
			t.Errorf("%s/%s: non-positive measurement %+v", r.Dataset, r.Algo, r)
		}
		if r.MappedLoadMS <= 0 || r.CopyFirstQueryMS <= 0 || r.MappedFirstQueryMS <= 0 {
			t.Errorf("%s/%s: non-positive mapped measurement %+v", r.Dataset, r.Algo, r)
		}
		if r.MappedSpeedup <= 0 || math.IsNaN(r.MappedSpeedup) {
			t.Errorf("%s/%s: mapped speedup = %g", r.Dataset, r.Algo, r.MappedSpeedup)
		}
	}
	if cmp.GeoMeanSpeedup <= 0 || math.IsNaN(cmp.GeoMeanSpeedup) {
		t.Errorf("geomean speedup = %g", cmp.GeoMeanSpeedup)
	}
	if cmp.GeoMeanMappedSpeedup <= 0 || math.IsNaN(cmp.GeoMeanMappedSpeedup) {
		t.Errorf("geomean mapped speedup = %g", cmp.GeoMeanMappedSpeedup)
	}
	if len(rep.Rows) != len(cmp.Results) {
		t.Error("report row count mismatch")
	}
	// The store section rides inside Comparison as "store".
	var buf bytes.Buffer
	if err := (&Comparison{Store: cmp}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"store"`, `"build_ms"`, `"load_ms"`, `"geomean_speedup"`,
		`"mapped_load_ms"`, `"copy_first_query_ms"`, `"mapped_first_query_ms"`, `"mapped_speedup"`,
		`"geomean_mapped_speedup"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON missing %s", key)
		}
	}
}
