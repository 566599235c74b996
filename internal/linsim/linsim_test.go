package linsim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"crashsim/internal/exact"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

func TestOptionsValidate(t *testing.T) {
	nan := math.NaN()
	for _, o := range []Options{
		{C: 2}, {Eps: 7}, {K: -1}, {DSamples: -1},
		{C: nan, K: 3}, {Eps: nan, K: 3}, {C: nan}, {Eps: nan},
		{K: maxK + 1}, {K: 1 << 30}, {K: math.MaxInt},
		{C: 0.9999999, Eps: 0.5}, // derives K = 20,794,416
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	for _, o := range []Options{{}, {K: 1}, {K: maxK}} {
		if err := o.Validate(); err != nil {
			t.Errorf("options %+v rejected: %v", o, err)
		}
	}
	// A derived depth out of range is blamed on the inputs it came from.
	err := Options{C: 0.9999999, Eps: 0.5}.Validate()
	if msg := fmt.Sprint(err); !strings.Contains(msg, "c=0.9999999") || !strings.Contains(msg, "eps=0.5") {
		t.Errorf("derived-depth error %q does not name both c and eps", msg)
	}
	if _, err := New(graph.PaperExample(), Options{C: 0.9999999, Eps: 0.5}); err == nil {
		t.Error("New accepted a derived depth above the bound")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(graph.PaperExample(), Options{C: 5}); err == nil {
		t.Error("bad options accepted")
	}
	s, err := New(graph.PaperExample(), Options{DSamples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SingleSource(-1); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := s.Sim(0, 99); err == nil {
		t.Error("bad pair accepted")
	}
}

// TestAccuracyAgainstPowerMethod: the deterministic series with the MC
// diagonal must track the exact fixed point on multiple graph shapes.
func TestAccuracyAgainstPowerMethod(t *testing.T) {
	graphs := map[string]*graph.Graph{"paper-example": graph.PaperExample()}
	edges, err := gen.ErdosRenyi(60, 180, true, 91)
	if err != nil {
		t.Fatal(err)
	}
	if graphs["random-er"], err = gen.BuildStatic(60, true, edges); err != nil {
		t.Fatal(err)
	}
	baEdges, err := gen.PreferentialAttachment(80, 3, true, 92)
	if err != nil {
		t.Fatal(err)
	}
	if graphs["random-ba"], err = gen.BuildStatic(80, true, baEdges); err != nil {
		t.Fatal(err)
	}
	for name, g := range graphs {
		gt, err := exact.PowerMethod(g, exact.PowerOptions{C: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(g, Options{C: 0.6, DSamples: 600, Seed: 93})
		if err != nil {
			t.Fatal(err)
		}
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u += 11 {
			col, err := s.SingleSource(u)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for v := 0; v < g.NumNodes(); v++ {
				if d := math.Abs(col[v] - gt.Sim(u, graph.NodeID(v))); d > worst {
					worst = d
				}
			}
			if worst > 0.06 {
				t.Errorf("%s source %d: max error %.4f above 0.06", name, u, worst)
			}
		}
	}
}

// TestDeterministicQueries: unlike the Monte-Carlo methods, repeated
// queries must be bit-identical (all noise lives in the shared d).
func TestDeterministicQueries(t *testing.T) {
	g := graph.PaperExample()
	s, err := New(g, Options{DSamples: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("repeated query differs at %d", v)
		}
	}
}

func TestDiagonalRange(t *testing.T) {
	g := graph.PaperExample()
	s, err := New(g, Options{C: 0.6, DSamples: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if d := s.D(v); d < 1-0.6-0.1 || d > 1 {
			t.Errorf("d(%d) = %g outside plausible range", v, d)
		}
	}
}

func TestDanglingSource(t *testing.T) {
	g := graph.NewBuilder(3, true).AddEdge(0, 2).AddEdge(1, 2).MustFreeze()
	s, err := New(g, Options{DSamples: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	col, err := s.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	if col[0] != 1 || col[1] != 0 || col[2] != 0 {
		t.Errorf("dangling-source column = %v, want [1 0 0]", col)
	}
}

// denseSingleSource is the dense reference query the solver is checked
// against: K+1 fresh forward vectors x_k = (Wᵀ)^k e_u, each one step of
// the reverse uniform walk spread from the last, then the backward
// accumulation r = D x_K; r ← c W r + D x_k over fresh vectors.
func denseSingleSource(s *Solver, u graph.NodeID) []float64 {
	n := s.g.NumNodes()
	average := func(x []float64, scale float64) []float64 {
		y := make([]float64, n)
		for v := 0; v < n; v++ {
			in := s.g.In(graph.NodeID(v))
			if len(in) == 0 {
				continue
			}
			sum := 0.0
			for _, w := range in {
				sum += x[w]
			}
			y[v] = scale * sum / float64(len(in))
		}
		return y
	}
	spread := func(x []float64) []float64 {
		y := make([]float64, n)
		for v := 0; v < n; v++ {
			in := s.g.In(graph.NodeID(v))
			if len(in) == 0 || x[v] == 0 {
				continue
			}
			w := x[v] / float64(len(in))
			for _, z := range in {
				y[z] += w
			}
		}
		return y
	}
	scaleD := func(x []float64) []float64 {
		y := make([]float64, n)
		for v := range x {
			y[v] = s.d[v] * x[v]
		}
		return y
	}
	xs := make([][]float64, s.opt.K+1)
	xs[0] = make([]float64, n)
	xs[0][u] = 1
	for k := 1; k <= s.opt.K; k++ {
		xs[k] = spread(xs[k-1])
	}
	r := scaleD(xs[s.opt.K])
	for k := s.opt.K - 1; k >= 0; k-- {
		r = average(r, s.opt.C)
		dx := scaleD(xs[k])
		for v := range r {
			r[v] += dx[v]
		}
	}
	r[u] = 1
	return r
}

// diffSources returns the sources the differential test queries on g:
// its five highest in-degree nodes, fifteen more spread over the id
// range, and the first node no edge enters, if there is one.
func diffSources(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	byDegree := make([]graph.NodeID, n)
	for v := range byDegree {
		byDegree[v] = graph.NodeID(v)
	}
	slices.SortStableFunc(byDegree, func(x, y graph.NodeID) int { return g.InDegree(y) - g.InDegree(x) })
	sources := slices.Clone(byDegree[:min(5, n)])
	for i := 0; i < 15; i++ {
		sources = append(sources, graph.NodeID(i*n/15))
	}
	if i := slices.IndexFunc(byDegree, func(v graph.NodeID) bool { return g.InDegree(v) == 0 }); i >= 0 {
		sources = append(sources, byDegree[i])
	}
	return sources
}

// checkBitIdentical fails t unless s answers every source bit for bit
// like the dense reference.
func checkBitIdentical(t *testing.T, name string, s *Solver, sources []graph.NodeID) {
	t.Helper()
	for _, u := range sources {
		got, err := s.SingleSource(u)
		if err != nil {
			t.Fatal(err)
		}
		want := denseSingleSource(s, u)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Errorf("%s source %d: sim(%d) = %v, dense reference %v", name, u, v, got[v], want[v])
				break
			}
		}
	}
}

// TestSingleSourceMatchesDenseOracle: the query reads its forward
// vectors off core's level push and accumulates into two vectors; every
// score must equal the dense reference's bit for bit, hubs, dangling
// sources and both derived depths included.
func TestSingleSourceMatchesDenseOracle(t *testing.T) {
	for _, name := range []string{"web-1m", "as-733", "hepth"} {
		prof, err := gen.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := prof.Scaled(0.05).Static(7)
		if err != nil {
			t.Fatal(err)
		}
		sources := diffSources(g)
		for _, eps := range []float64{0.025, 0.1} {
			s, err := New(g, Options{C: 0.6, Eps: eps, DSamples: 8, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			checkBitIdentical(t, fmt.Sprintf("%s@0.05 eps=%g", name, eps), s, sources)
		}
	}
	small := map[string]*graph.Graph{
		"paper-example": graph.PaperExample(),
		"dangling":      graph.NewBuilder(3, true).AddEdge(0, 2).AddEdge(1, 2).MustFreeze(),
	}
	for name, g := range small {
		s, err := New(g, Options{DSamples: 20, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		all := make([]graph.NodeID, g.NumNodes())
		for v := range all {
			all[v] = graph.NodeID(v)
		}
		checkBitIdentical(t, name, s, all)
	}
}
