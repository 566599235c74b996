package core

import (
	"math"
	"strings"
	"testing"

	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func TestDeriveLmax(t *testing.T) {
	// c = 0.25: (1 + 0.5) / 0.25 = 6.
	if got := DeriveLmax(0.25); got != 6 {
		t.Errorf("DeriveLmax(0.25) = %d, want 6", got)
	}
	// c = 0.6: (1+√0.6)/(1−√0.6)² ≈ 34.93 → 35.
	if got := DeriveLmax(0.6); got != 35 {
		t.Errorf("DeriveLmax(0.6) = %d, want 35", got)
	}
}

func TestTruncationQuantities(t *testing.T) {
	c := 0.6
	lmax := DeriveLmax(c)
	p := TruncationMass(c, lmax)
	et := TruncationError(c, lmax)
	if math.Abs(p+et-1) > 1e-12 {
		t.Errorf("p + ε_t = %g, want 1 (p is the geometric CDF at lmax)", p+et)
	}
	// Explicit geometric sum must agree with the closed form.
	sc := math.Sqrt(c)
	sum := 0.0
	for k := 1; k <= lmax; k++ {
		sum += math.Pow(sc, float64(k-1)) * (1 - sc)
	}
	if math.Abs(sum-p) > 1e-12 {
		t.Errorf("geometric sum %g != closed form %g", sum, p)
	}
}

func TestDeriveIterationsMonotone(t *testing.T) {
	n := 1000
	base := DeriveIterations(0.6, 0.025, 0.01, DeriveLmax(0.6), n)
	if base < 1 {
		t.Fatalf("derived iterations %d < 1", base)
	}
	looser := DeriveIterations(0.6, 0.05, 0.01, DeriveLmax(0.6), n)
	if looser >= base {
		t.Errorf("looser eps should need fewer iterations: %d vs %d", looser, base)
	}
	bigger := DeriveIterations(0.6, 0.025, 0.01, DeriveLmax(0.6), 10*n)
	if bigger <= base {
		t.Errorf("larger n should need more iterations: %d vs %d", bigger, base)
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		want string
	}{
		{"bad c", Params{C: 1.5}, "decay factor"},
		{"negative c", Params{C: -0.1}, "decay factor"},
		{"bad eps", Params{Eps: 2}, "error bound"},
		{"bad delta", Params{Delta: 1}, "failure probability"},
		{"negative lmax", Params{Lmax: -1}, "lmax"},
		{"negative iterations", Params{Iterations: -5}, "iterations"},
		{"eps below truncation", Params{Eps: 1e-9, Lmax: 2}, "truncation error"},
		// Regression: the truncation check must also fire for callers
		// relying on the default ε = 0.025 — with lmax forced to 1 the
		// truncation error p·ε_t ≈ 0.17 dwarfs the default ε, and the old
		// `p.Eps != 0` guard skipped the check entirely.
		{"default eps below truncation", Params{Lmax: 1}, "truncation error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params should validate with defaults: %v", err)
	}
}

func TestSingleSourceErrors(t *testing.T) {
	g := graph.PaperExample()
	if _, err := SingleSource(g, 99, nil, Params{Iterations: 10}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := SingleSource(g, 0, []graph.NodeID{42}, Params{Iterations: 10}); err == nil {
		t.Error("out-of-range candidate accepted")
	}
	if _, err := SingleSource(g, 0, nil, Params{C: 7}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSingleSourceSelfScore(t *testing.T) {
	g := graph.PaperExample()
	s, err := SingleSource(g, 0, nil, Params{Iterations: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Errorf("s(u,u) = %g, want 1", s[0])
	}
	if len(s) != 8 {
		t.Errorf("nil omega should cover all %d nodes, got %d", 8, len(s))
	}
	for v, score := range s {
		if score < 0 || score > 1+1e-9 {
			t.Errorf("score s(0,%d) = %g outside [0,1]", v, score)
		}
	}
}

// TestSingleSourceAccuracy compares CrashSim against the Power Method on
// the paper's example graph at the paper's experimental setting c = 0.6.
// The run is deterministic (fixed seed), so the tolerance can be close to
// the configured ε.
func TestSingleSourceAccuracy(t *testing.T) {
	g := graph.PaperExample()
	gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	u := graph.PaperNode("A")
	p := Params{C: 0.6, Eps: 0.05, Delta: 0.01, Seed: 7}
	s, err := SingleSource(g, u, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for v, got := range s {
		want := gt.Sim(u, v)
		// MeetingAny slightly overcounts repeated co-locations, so allow
		// the configured ε plus a small bias margin.
		if diff := math.Abs(got - want); diff > 0.08 {
			t.Errorf("s(A,%s) = %.4f, power method %.4f, |diff| = %.4f", graph.PaperLabel(v), got, want, diff)
		}
	}
}

// TestSingleSourceAccuracyRandom repeats the accuracy comparison on a
// random directed graph with dangling nodes.
func TestSingleSourceAccuracyRandom(t *testing.T) {
	edges, err := gen.ErdosRenyi(60, 180, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(60, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SingleSource(g, 0, nil, Params{C: 0.6, Eps: 0.05, Delta: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for v, got := range s {
		if d := math.Abs(got - gt.Sim(0, v)); d > worst {
			worst = d
		}
	}
	if worst > 0.08 {
		t.Errorf("max error %.4f above tolerance 0.08", worst)
	}
}

// TestFirstCrashReducesOvercount checks the relationship between the two
// meeting rules: first-crash accumulation never exceeds any-meeting
// accumulation for the same seed (it truncates each walk's contribution).
func TestFirstCrashReducesOvercount(t *testing.T) {
	g := graph.PaperExample()
	u := graph.PaperNode("A")
	base := Params{C: 0.6, Iterations: 500, Seed: 5, Meeting: MeetingAny}
	anyRule, err := SingleSource(g, u, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	fc := base
	fc.Meeting = MeetingFirstCrash
	firstCrash, err := SingleSource(g, u, nil, fc)
	if err != nil {
		t.Fatal(err)
	}
	for v := range anyRule {
		if firstCrash[v] > anyRule[v]+1e-12 {
			t.Errorf("first-crash score %.4f exceeds any-meeting %.4f at node %d", firstCrash[v], anyRule[v], v)
		}
	}
}

// TestPrefilterDisabledSameScores: the prefilter only skips provably
// zero candidates, so disabling it must not change a single score.
func TestPrefilterDisabledSameScores(t *testing.T) {
	edges, err := gen.PreferentialAttachment(80, 3, true, 41)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(80, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	on := Params{Iterations: 150, Seed: 7}
	off := on
	off.DisablePrefilter = true
	a, err := SingleSource(g, 0, nil, on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SingleSource(g, 0, nil, off)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("prefilter changed score at node %d: %g vs %g", v, a[v], b[v])
		}
	}
}

// TestWorkersDeterminism verifies that results are identical regardless
// of the worker count, because every candidate owns its random stream.
func TestWorkersDeterminism(t *testing.T) {
	edges, err := gen.ErdosRenyi(50, 150, true, 21)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(50, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	p1 := Params{Iterations: 200, Seed: 9, Workers: 1}
	p4 := Params{Iterations: 200, Seed: 9, Workers: 4}
	s1, err := SingleSource(g, 0, nil, p1)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := SingleSource(g, 0, nil, p4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range s1 {
		if s1[v] != s4[v] {
			t.Fatalf("worker-count changed result at node %d: %g vs %g", v, s1[v], s4[v])
		}
	}
}

// TestOmegaSubsetConsistency verifies partial computation: restricting Ω
// returns exactly the same per-node scores as the full single-source run,
// the property CrashSim-T's shrinking candidate set relies on.
func TestOmegaSubsetConsistency(t *testing.T) {
	g := graph.PaperExample()
	u := graph.PaperNode("A")
	p := Params{Iterations: 300, Seed: 13}
	full, err := SingleSource(g, u, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	subset := []graph.NodeID{graph.PaperNode("C"), graph.PaperNode("F")}
	part, err := SingleSource(g, u, subset, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 2 {
		t.Fatalf("partial result has %d entries, want 2", len(part))
	}
	for _, v := range subset {
		if part[v] != full[v] {
			t.Errorf("partial score s(A,%s)=%g differs from full %g", graph.PaperLabel(v), part[v], full[v])
		}
	}
}

func TestSingleSourceWithTreeValidation(t *testing.T) {
	g := graph.PaperExample()
	u := graph.PaperNode("A")
	p := Params{Iterations: 10, Seed: 1}
	tree, err := BuildTree(g, u, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SingleSourceWithTree(g, graph.PaperNode("B"), nil, p, tree); err == nil {
		t.Error("tree for wrong source accepted")
	}
	if _, err := SingleSourceWithTree(g, u, nil, p, nil); err == nil {
		t.Error("nil tree accepted")
	}
	got, err := SingleSourceWithTree(g, u, nil, p, tree)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SingleSource(g, u, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("with-tree score differs at %d: %g vs %g", v, got[v], want[v])
		}
	}
}

func TestSampleWalkProperties(t *testing.T) {
	g := graph.PaperExample()
	r := newTestRand(3)
	for trial := 0; trial < 200; trial++ {
		w := sampleWalk(g, 2, math.Sqrt(0.6), 10, r, nil)
		if len(w) < 1 || len(w) > 11 {
			t.Fatalf("walk length %d outside [1, 11]", len(w))
		}
		if w[0] != 2 {
			t.Fatalf("walk does not start at source: %v", w)
		}
		for i := 1; i < len(w); i++ {
			found := false
			for _, x := range g.In(w[i-1]) {
				if x == w[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("walk step %d -> %d not an in-neighbor move", w[i-1], w[i])
			}
		}
	}
}

func TestSampleWalkDeadEnd(t *testing.T) {
	// Node 0 has no in-neighbors: every walk from it has length 1.
	g := graph.NewBuilder(2, true).AddEdge(0, 1).MustFreeze()
	r := newTestRand(1)
	for trial := 0; trial < 50; trial++ {
		if w := sampleWalk(g, 0, math.Sqrt(0.6), 10, r, nil); len(w) != 1 {
			t.Fatalf("walk from dangling node has length %d, want 1", len(w))
		}
	}
}
