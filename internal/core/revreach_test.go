package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

// TestRevReachExample2 reproduces the reverse reachable tree of node A
// from the paper's Example 2 (c = 0.25, √c = 0.5) exactly. The paper's
// numbers arise from the non-backtracking expansion (Algorithm 2 line 9)
// combined with the literal √c/|I(v)| transition of Algorithm 2 line 12.
func TestRevReachExample2(t *testing.T) {
	g := graph.PaperExample()
	A := graph.PaperNode("A")
	tree := RevReachNonBacktracking(g, A, 0.25, 6, TransitionPaperLiteral)

	want := []struct {
		step  int
		node  string
		value float64
	}{
		{0, "A", 1},
		{1, "B", 0.25},
		{1, "C", 1.0 / 6},
		{2, "E", 0.0625},
		{2, "B", 1.0 / 24},
		{2, "D", 1.0 / 24},
		{3, "H", 0.015625},
		{3, "A", 1.0 / 96},
		{3, "E", 1.0 / 96},
		{3, "B", 1.0 / 96},
	}
	for _, w := range want {
		got := tree.Prob(w.step, graph.PaperNode(w.node))
		if math.Abs(got-w.value) > 1e-12 {
			t.Errorf("U(%d,%s) = %.6f, want %.6f", w.step, w.node, got, w.value)
		}
	}
	// The paper's level sizes: level 1 has {B, C}, level 2 has {E, B, D}
	// (A is excluded by the parent rule), level 3 has {H, A, E, B}.
	for step, wantLen := range map[int]int{1: 2, 2: 3, 3: 4} {
		if nodes, _ := tree.Level(step); len(nodes) != wantLen {
			t.Errorf("level %d has %d entries, want %d (%v)", step, len(nodes), wantLen, nodes)
		}
	}
}

// TestExample2CrashProbability checks the walk-contribution arithmetic of
// Example 2: for walk W(C) = (C, D, B, A), the crash probability against
// A's tree is U(2,B) + U(3,A) = 1/24 + 1/96 ≈ 0.0521.
func TestExample2CrashProbability(t *testing.T) {
	g := graph.PaperExample()
	A := graph.PaperNode("A")
	tree := RevReachNonBacktracking(g, A, 0.25, 6, TransitionPaperLiteral)
	walk := []graph.NodeID{graph.PaperNode("C"), graph.PaperNode("D"), graph.PaperNode("B"), graph.PaperNode("A")}
	sum := 0.0
	for i := 1; i < len(walk); i++ {
		sum += tree.Prob(i, walk[i])
	}
	if want := 1.0/24 + 1.0/96; math.Abs(sum-want) > 1e-12 {
		t.Errorf("crash probability = %.6f, want %.6f", sum, want)
	}
}

// TestRevReachExactMassBound verifies the defining property of the exact
// transition rule: the level-t mass is exactly (√c)^t times the
// probability that a t-step prefix exists, hence at most (√c)^t.
func TestRevReachExactMassBound(t *testing.T) {
	g := graph.PaperExample()
	c := 0.6
	tree := RevReach(g, graph.PaperNode("A"), c, DeriveLmax(c), TransitionExact)
	for step := 0; step < tree.NumLevels(); step++ {
		mass := tree.LevelMass(step)
		bound := math.Pow(math.Sqrt(c), float64(step))
		if mass > bound+1e-12 {
			t.Errorf("level %d mass %.6f exceeds (√c)^t = %.6f", step, mass, bound)
		}
	}
	// On the example graph every node has an in-neighbor, so the walk
	// never dies structurally and the mass is exactly the bound.
	for step := 0; step < tree.NumLevels(); step++ {
		mass := tree.LevelMass(step)
		bound := math.Pow(math.Sqrt(c), float64(step))
		if math.Abs(mass-bound) > 1e-9 {
			t.Errorf("level %d mass %.9f != (√c)^t = %.9f on dangling-free graph", step, mass, bound)
		}
	}
}

// TestRevReachMassBoundQuick property-checks the sub-distribution bound
// on random graphs, which may contain dangling nodes that absorb mass.
func TestRevReachMassBoundQuick(t *testing.T) {
	c := 0.6
	lmax := 8
	f := func(seed uint64) bool {
		edges, err := gen.ErdosRenyi(30, 60, true, seed)
		if err != nil {
			return false
		}
		g, err := gen.BuildStatic(30, true, edges)
		if err != nil {
			return false
		}
		tree := RevReach(g, 0, c, lmax, TransitionExact)
		for step := 0; step <= lmax; step++ {
			if tree.LevelMass(step) > math.Pow(math.Sqrt(c), float64(step))+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReachTreeEqual(t *testing.T) {
	g := graph.PaperExample()
	A := graph.PaperNode("A")
	a := RevReach(g, A, 0.6, 10, TransitionExact)
	b := RevReach(g, A, 0.6, 10, TransitionExact)
	if !a.Equal(b, 0) {
		t.Error("identical computations not Equal at tol 0")
	}
	c := RevReach(g, graph.PaperNode("B"), 0.6, 10, TransitionExact)
	if a.Equal(c, 1e-9) {
		t.Error("trees of different sources reported Equal")
	}
	if a.Equal(nil, 0) {
		t.Error("Equal(nil) = true")
	}
	short := RevReach(g, A, 0.6, 5, TransitionExact)
	if a.Equal(short, 1e-9) {
		t.Error("trees with different lmax reported Equal")
	}
}

func TestReachTreeEqualDetectsEdgeChange(t *testing.T) {
	d := graph.NewDiGraph(8, true)
	for _, e := range graph.PaperExample().Edges() {
		if err := d.AddEdge(e.X, e.Y); err != nil {
			t.Fatal(err)
		}
	}
	A := graph.PaperNode("A")
	before := RevReach(d.Freeze(), A, 0.6, 10, TransitionExact)
	// Removing an edge far from A (G -> F) still alters A's tree because
	// F and G are reverse-reachable from A via H and E.
	if err := d.RemoveEdge(graph.PaperNode("G"), graph.PaperNode("F")); err != nil {
		t.Fatal(err)
	}
	after := RevReach(d.Freeze(), A, 0.6, 10, TransitionExact)
	if before.Equal(after, 1e-12) {
		t.Error("tree unchanged after removing a reverse-reachable edge")
	}
}

func TestReachTreeNodes(t *testing.T) {
	g := graph.PaperExample()
	tree := RevReach(g, graph.PaperNode("A"), 0.6, 10, TransitionExact)
	nodes := tree.Nodes()
	// Every node of the example graph is reverse-reachable from A within
	// 10 steps.
	if len(nodes) != 8 {
		t.Errorf("tree covers %d nodes, want 8: %v", len(nodes), nodes)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Errorf("Nodes() not sorted: %v", nodes)
		}
	}
}

func TestReachTreeProbOutOfRange(t *testing.T) {
	tree := RevReach(graph.PaperExample(), 0, 0.6, 4, TransitionExact)
	if tree.Prob(-1, 0) != 0 || tree.Prob(99, 0) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
	for _, step := range []int{-1, 99} {
		if nodes, probs := tree.Level(step); nodes != nil || probs != nil {
			t.Errorf("Level(%d) should be nil", step)
		}
	}
}

func TestTransitionRuleStrings(t *testing.T) {
	if TransitionExact.String() != "exact" || TransitionPaperLiteral.String() != "paper-literal" {
		t.Error("TransitionRule strings wrong")
	}
	if MeetingAny.String() != "any" || MeetingFirstCrash.String() != "first-crash" {
		t.Error("MeetingRule strings wrong")
	}
	if TransitionRule(9).String() == "" || MeetingRule(9).String() == "" {
		t.Error("unknown enum values should still stringify")
	}
}

// bitEqualTrees reports whether two trees are bit-for-bit identical:
// same levels, same supports, every probability equal under
// math.Float64bits. Stricter than Equal(o, 0), which admits -0 vs +0.
func bitEqualTrees(a, b *ReachTree) bool {
	if !slices.Equal(a.off, b.off) || !slices.Equal(a.nodes, b.nodes) {
		return false
	}
	for i := range a.probs {
		if math.Float64bits(a.probs[i]) != math.Float64bits(b.probs[i]) {
			return false
		}
	}
	return true
}

// TestPatchEquivalence is the contract behind CrashSim-T's incremental
// source tree: walking a churn history and delta-patching the previous
// snapshot's tree must reproduce BuildTree on every snapshot bit for
// bit, and the diff byproduct must equal the DiffNodes sweep the
// rebuild path would have run.
func TestPatchEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		directed bool
		rule     TransitionRule
		rate     float64
	}{
		{"directed-exact-tiny", true, TransitionExact, 0.005},
		{"directed-exact", true, TransitionExact, 0.03},
		{"directed-literal", true, TransitionPaperLiteral, 0.02},
		{"undirected-exact", false, TransitionExact, 0.02},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := gen.ErdosRenyi(60, 180, tc.directed, 31)
			if err != nil {
				t.Fatal(err)
			}
			tg, err := gen.Churn(60, tc.directed, base, gen.ChurnOptions{
				Snapshots: 7, AddRate: tc.rate, DelRate: tc.rate, Seed: 33,
			})
			if err != nil {
				t.Fatal(err)
			}
			p := Params{Transition: tc.rule}.withDefaults()
			cur, err := tg.Cursor()
			if err != nil {
				t.Fatal(err)
			}
			cur.Freeze()
			prev, err := BuildTree(cur.Freeze(), 0, p)
			if err != nil {
				t.Fatal(err)
			}
			patched := 0
			for cur.Next() {
				d := tg.Delta(cur.T() - 1)
				gCur := cur.Freeze()
				want, err := BuildTree(gCur, 0, p)
				if err != nil {
					t.Fatal(err)
				}
				wantDiff := want.DiffNodes(prev, 0)
				got, diff, ok := prev.Patch(nil, gCur, d.Add, d.Del, p, 0, 1e9)
				if !ok {
					t.Fatalf("t=%d: Patch bailed under an unbounded gate", cur.T())
				}
				patched++
				if !bitEqualTrees(got, want) {
					t.Fatalf("t=%d: patched tree differs from rebuild", cur.T())
				}
				if len(diff) != len(wantDiff) {
					t.Fatalf("t=%d: diff %v, want %v", cur.T(), diff, wantDiff)
				}
				for i := range diff {
					if diff[i] != wantDiff[i] {
						t.Fatalf("t=%d: diff %v, want %v", cur.T(), diff, wantDiff)
					}
				}
				if len(wantDiff) == 0 && got != prev {
					t.Errorf("t=%d: bit-identical patch did not return the previous tree pointer", cur.T())
				}
				prev = got
			}
			if patched == 0 {
				t.Fatal("history produced no transitions; test is vacuous")
			}
		})
	}
}

// TestPatchFallbacks: the cases where patching must refuse and hand the
// caller to a full rebuild.
func TestPatchFallbacks(t *testing.T) {
	base, err := gen.ErdosRenyi(40, 120, true, 41)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := gen.Churn(40, true, base, gen.ChurnOptions{
		Snapshots: 2, AddRate: 0.05, DelRate: 0.05, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{}.withDefaults()
	cur, err := tg.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	prev, err := BuildTree(cur.Freeze(), 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal("history too short")
	}
	d := tg.Delta(0)
	gCur := cur.Freeze()

	// A zero gate makes any non-empty affected closure exceed budget.
	if _, _, ok := prev.Patch(nil, gCur, d.Add, d.Del, p, 0, 0); ok {
		t.Error("Patch accepted a zero gate with a non-empty delta")
	}
	// Non-backtracking trees never patch.
	nb := p
	nb.NonBacktracking = true
	if _, _, ok := prev.Patch(nil, gCur, d.Add, d.Del, nb, 0, 1e9); ok {
		t.Error("Patch accepted non-backtracking params")
	}
	// An Lmax mismatch (tree built with a different truncation) refuses.
	short := p
	short.Lmax = p.Lmax + 1
	if _, _, ok := prev.Patch(nil, gCur, d.Add, d.Del, short, 0, 1e9); ok {
		t.Error("Patch accepted an Lmax mismatch")
	}
}

// mapLevels is the map-per-level tree form ReachTree used before the
// flat arena: levels[t][x] = U[t][x].
type mapLevels []map[graph.NodeID]float64

// revReachMapOracle is the map-level RevReach the flat arena replaced,
// kept as the reference the arena is tested against. It pushes each
// level's mass in ascending source order (in-edge order within a
// source), the summation order RevReach must reproduce bit for bit.
func revReachMapOracle(g adjacency, u graph.NodeID, c float64, lmax int, rule TransitionRule) mapLevels {
	sc := math.Sqrt(c)
	levels := make(mapLevels, lmax+1)
	levels[0] = map[graph.NodeID]float64{u: 1}
	for step := 0; step < lmax; step++ {
		cur := levels[step]
		order := make([]graph.NodeID, 0, len(cur))
		for x := range cur {
			order = append(order, x)
		}
		slices.Sort(order)
		next := make(map[graph.NodeID]float64)
		for _, x := range order {
			in := g.In(x)
			if len(in) == 0 {
				continue
			}
			for _, v := range in {
				switch rule {
				case TransitionExact:
					next[v] += cur[x] * sc / float64(len(in))
				case TransitionPaperLiteral:
					if deg := g.InDegree(v); deg > 0 {
						next[v] += cur[x] * sc / float64(deg)
					}
				}
			}
		}
		levels[step+1] = next
	}
	return levels
}

// revReachNonBacktrackingMapOracle is the map-level non-backtracking
// expansion, with each level's node marginals summed over the states
// in ascending (node, parent) order.
func revReachNonBacktrackingMapOracle(g adjacency, u graph.NodeID, c float64, lmax int, rule TransitionRule) mapLevels {
	type state struct{ node, parent graph.NodeID }
	sorted := func(m map[state]float64) []state {
		out := make([]state, 0, len(m))
		for s := range m {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].node != out[j].node {
				return out[i].node < out[j].node
			}
			return out[i].parent < out[j].parent
		})
		return out
	}
	sc := math.Sqrt(c)
	levels := make(mapLevels, lmax+1)
	levels[0] = map[graph.NodeID]float64{u: 1}
	cur := map[state]float64{{node: u, parent: -1}: 1}
	for step := 0; step < lmax; step++ {
		next := make(map[state]float64)
		for _, s := range sorted(cur) {
			avail := 0
			for _, v := range g.In(s.node) {
				if v != s.parent {
					avail++
				}
			}
			for _, v := range g.In(s.node) {
				if v == s.parent {
					continue
				}
				switch rule {
				case TransitionPaperLiteral:
					if deg := g.InDegree(v); deg > 0 {
						next[state{v, s.node}] += cur[s] * sc / float64(deg)
					}
				default:
					next[state{v, s.node}] += cur[s] * sc / float64(avail)
				}
			}
		}
		level := make(map[graph.NodeID]float64)
		for _, s := range sorted(next) {
			level[s.node] += next[s]
		}
		levels[step+1] = level
		cur = next
	}
	return levels
}

// sameAsMap reports whether the flat tree holds exactly the oracle's
// (step, node, bits) entries.
func sameAsMap(t *ReachTree, m mapLevels) bool {
	if t.NumLevels() != len(m) {
		return false
	}
	for step, lv := range m {
		nodes, probs := t.Level(step)
		if len(nodes) != len(lv) || !slices.IsSorted(nodes) {
			return false
		}
		for i, v := range nodes {
			p, ok := lv[v]
			if !ok || math.Float64bits(p) != math.Float64bits(probs[i]) {
				return false
			}
			if math.Float64bits(t.Prob(step, v)) != math.Float64bits(p) {
				return false
			}
		}
	}
	return true
}

// mapEqual, mapDiffNodes and mapNodes are the map-form Equal, DiffNodes
// and Nodes the flat tree's versions must agree with.
func mapEqual(a, b mapLevels, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for step := range a {
		if len(a[step]) != len(b[step]) {
			return false
		}
		for v, pa := range a[step] {
			pb, ok := b[step][v]
			if !ok || math.Abs(pa-pb) > tol {
				return false
			}
		}
	}
	return true
}

func mapDiffNodes(a, b mapLevels, tol float64) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	for step := 0; step < max(len(a), len(b)); step++ {
		var la, lb map[graph.NodeID]float64
		if step < len(a) {
			la = a[step]
		}
		if step < len(b) {
			lb = b[step]
		}
		for v, pa := range la {
			if pb, ok := lb[v]; !ok || math.Abs(pa-pb) > tol {
				seen[v] = true
			}
		}
		for v := range lb {
			if _, ok := la[v]; !ok {
				seen[v] = true
			}
		}
	}
	var out []graph.NodeID
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func mapNodes(m mapLevels) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	for _, lv := range m {
		for v := range lv {
			seen[v] = true
		}
	}
	var out []graph.NodeID
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestFlatTreeMatchesMapOracle: on random graphs of both orientations,
// for both transition rules and for the non-backtracking expansion, the
// flat tree must hold the map oracle's exact (step, node, bits)
// entries, and Equal, DiffNodes, Nodes and LevelMass must agree with
// their map-form definitions — including between trees of a graph and
// of the same graph with a few edges removed.
func TestFlatTreeMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 40; trial++ {
		n := 10 + r.IntN(60)
		m := n + r.IntN(4*n)
		directed := trial%2 == 0
		edges, err := gen.ErdosRenyi(n, m, directed, uint64(trial+1))
		if err != nil {
			t.Fatal(err)
		}
		g, err := gen.BuildStatic(n, directed, edges)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := gen.BuildStatic(n, directed, edges[:len(edges)-1-r.IntN(3)])
		if err != nil {
			t.Fatal(err)
		}
		u := graph.NodeID(r.IntN(n))
		lmax := 1 + r.IntN(12)
		type build struct {
			name   string
			tree   func(adjacency, graph.NodeID, float64, int, TransitionRule) *ReachTree
			oracle func(adjacency, graph.NodeID, float64, int, TransitionRule) mapLevels
		}
		for _, b := range []build{
			{"revreach", RevReach, revReachMapOracle},
			{"non-backtracking", RevReachNonBacktracking, revReachNonBacktrackingMapOracle},
		} {
			for _, rule := range []TransitionRule{TransitionExact, TransitionPaperLiteral} {
				name := fmt.Sprintf("trial %d %s %v", trial, b.name, rule)
				ta, tb := b.tree(g, u, 0.6, lmax, rule), b.tree(g2, u, 0.6, lmax, rule)
				ma, mb := b.oracle(g, u, 0.6, lmax, rule), b.oracle(g2, u, 0.6, lmax, rule)
				if !sameAsMap(ta, ma) || !sameAsMap(tb, mb) {
					t.Fatalf("%s: flat tree differs from the map oracle", name)
				}
				for _, tol := range []float64{0, 1e-3} {
					if got, want := ta.Equal(tb, tol), mapEqual(ma, mb, tol); got != want {
						t.Fatalf("%s: Equal(tol=%g) = %v, map form %v", name, tol, got, want)
					}
					if got, want := ta.DiffNodes(tb, tol), mapDiffNodes(ma, mb, tol); !slices.Equal(got, want) {
						t.Fatalf("%s: DiffNodes(tol=%g) = %v, map form %v", name, tol, got, want)
					}
				}
				if !ta.Equal(ta, 0) || len(ta.DiffNodes(ta, 0)) != 0 {
					t.Fatalf("%s: tree differs from itself", name)
				}
				if got, want := ta.DiffNodes(nil, 0), mapNodes(ma); !slices.Equal(got, want) {
					t.Fatalf("%s: DiffNodes(nil) = %v, want %v", name, got, want)
				}
				if got, want := ta.Nodes(), mapNodes(ma); !slices.Equal(got, want) {
					t.Fatalf("%s: Nodes = %v, map form %v", name, got, want)
				}
				for step := range ma {
					want := 0.0
					for _, p := range ma[step] {
						want += p
					}
					if got := ta.LevelMass(step); math.Abs(got-want) > 1e-12 {
						t.Fatalf("%s: LevelMass(%d) = %v, map form %v", name, step, got, want)
					}
				}
			}
		}
	}
}

// TestPatchIntoDirtyArena: Patch overwrites whatever its destination
// arena held. Alternating two arenas across a churn history, the way
// CrashSim-T's double buffer does, every patched tree must equal
// BuildTree at tolerance zero, and a bit-identical patch must leave the
// spare arena free for the next transition.
func TestPatchIntoDirtyArena(t *testing.T) {
	for _, directed := range []bool{true, false} {
		base, err := gen.ErdosRenyi(60, 180, directed, 61)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := gen.Churn(60, directed, base, gen.ChurnOptions{
			Snapshots: 10, AddRate: 0.02, DelRate: 0.02, ActiveFraction: 0.7, Seed: 63,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := Params{}.withDefaults()
		cur, err := tg.Cursor()
		if err != nil {
			t.Fatal(err)
		}
		prev, err := BuildTree(cur.Freeze(), 0, p)
		if err != nil {
			t.Fatal(err)
		}
		// The spare starts dirty: it holds another source's tree.
		spare := RevReach(cur.Freeze(), 5, p.C, p.Lmax, p.Transition)
		patched := 0
		for cur.Next() {
			d := tg.Delta(cur.T() - 1)
			gCur := cur.Freeze()
			got, _, ok := prev.Patch(spare, gCur, d.Add, d.Del, p, 0, 1e9)
			if !ok {
				t.Fatalf("t=%d: Patch bailed under an unbounded gate", cur.T())
			}
			want, err := BuildTree(gCur, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqualTrees(got, want) {
				t.Fatalf("directed=%v t=%d: patch into a used arena differs from rebuild", directed, cur.T())
			}
			switch got {
			case prev:
			case spare:
				spare, prev = prev, got
				patched++
			default:
				t.Fatalf("t=%d: Patch returned neither the old tree nor the destination arena", cur.T())
			}
		}
		if patched < 2 {
			t.Fatalf("directed=%v: only %d transitions changed the tree; the arenas never alternated", directed, patched)
		}
	}
}
