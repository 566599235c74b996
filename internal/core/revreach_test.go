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

// TestReachTreeDiffNodes: diffInto finds that a tree differs from
// nothing built the same way, and from trees of another source, of
// another lmax or from no tree at all.
func TestReachTreeDiffNodes(t *testing.T) {
	g := graph.PaperExample()
	A := graph.PaperNode("A")
	a := RevReach(g, A, 0.6, 10, TransitionExact)
	b := RevReach(g, A, 0.6, 10, TransitionExact)
	if d := diffNodes(a, b, 0); len(d) != 0 {
		t.Errorf("identical computations differ at tol 0: %v", d)
	}
	c := RevReach(g, graph.PaperNode("B"), 0.6, 10, TransitionExact)
	if len(diffNodes(a, c, 1e-9)) == 0 {
		t.Error("trees of different sources reported equal")
	}
	if len(diffNodes(a, nil, 0)) == 0 {
		t.Error("the diff against no tree is empty")
	}
	short := RevReach(g, A, 0.6, 5, TransitionExact)
	if len(diffNodes(a, short, 1e-9)) == 0 {
		t.Error("trees with different lmax reported equal")
	}
}

func TestReachTreeDiffDetectsEdgeChange(t *testing.T) {
	g := graph.PaperExample()
	A := graph.PaperNode("A")
	before := RevReach(g, A, 0.6, 10, TransitionExact)
	// Removing an edge far from A (G -> F) still alters A's tree because
	// F and G are reverse-reachable from A via H and E.
	cut := g.Merge(nil, []graph.Edge{{X: graph.PaperNode("G"), Y: graph.PaperNode("F")}}, 0)
	after := RevReach(cut, A, 0.6, 10, TransitionExact)
	if len(diffNodes(before, after, 1e-12)) == 0 {
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

// mapLevels is the map-per-level tree form ReachTree used before the
// flat arena: levels[t][x] = U[t][x].
type mapLevels []map[graph.NodeID]float64

// revReachMapOracle is the map-level RevReach the flat arena replaced,
// kept as the reference the arena is tested against: pushMapOracle with
// no pruning, along in-edges.
func revReachMapOracle(g *graph.Graph, u graph.NodeID, c float64, lmax int, rule TransitionRule) mapLevels {
	return pushMapOracle(g, u, c, lmax, rule, 0, InEdges)
}

// pushMapOracle is the level push in map form, the way SLING and PRSim
// built their tables before they shared revReachInto. It pushes each
// level's mass in ascending source order (edge order within a source),
// the summation order the push must reproduce bit for bit, and drops
// every per-edge contribution below tau.
func pushMapOracle(g *graph.Graph, u graph.NodeID, c float64, lmax int, rule TransitionRule, tau float64, dir Direction) mapLevels {
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
			adj := g.In(x)
			if dir == OutEdges {
				adj = g.Out(x)
			}
			for _, v := range adj {
				var w float64
				switch rule {
				case TransitionExact:
					w = cur[x] * sc / float64(len(adj))
				case TransitionPaperLiteral:
					deg := g.InDegree(v)
					if deg == 0 {
						continue
					}
					w = cur[x] * sc / float64(deg)
				}
				if w >= tau {
					next[v] += w
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
func revReachNonBacktrackingMapOracle(g *graph.Graph, u graph.NodeID, c float64, lmax int, rule TransitionRule) mapLevels {
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
// (step, node, bits) entries and, when it carries a probe index,
// whether Prob reads each of them back.
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
			if t.words > 0 && math.Float64bits(t.Prob(step, v)) != math.Float64bits(p) {
				return false
			}
		}
	}
	return true
}

// mapDiffNodes and mapNodes are the map-form tree diff and Nodes the
// flat tree's versions must agree with.
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

// treeLevels is t's levels in map form.
func treeLevels(t *ReachTree) mapLevels {
	m := make(mapLevels, t.NumLevels())
	for step := range m {
		nodes, probs := t.Level(step)
		m[step] = make(map[graph.NodeID]float64, len(nodes))
		for i, v := range nodes {
			m[step][v] = probs[i]
		}
	}
	return m
}

// diffNodes returns a's diff against b (nil: no tree) as the sorted
// node list CrashSim-T sweeps out of diffInto's bitset, over a dirty
// bitset.
func diffNodes(a, b *ReachTree, tol float64) []graph.NodeID {
	if b == nil {
		b = &ReachTree{}
	}
	n := 0
	for _, t := range []*ReachTree{a, b} {
		if t.Support() > 0 {
			n = max(n, int(slices.Max(t.nodes))+1)
		}
	}
	changed := nodeBitset(make([]uint64, indexWords(n)))
	for i := range changed {
		changed[i] = ^uint64(0)
	}
	a.diffInto(b, tol, changed)
	return changed.appendNodes(nil)
}

// TestFlatTreeMatchesMapOracle: on random graphs of both orientations,
// for both transition rules and for the non-backtracking expansion, the
// flat tree must hold the map oracle's exact (step, node, bits)
// entries, and diffInto, Nodes and LevelMass must agree with
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
			tree   func(*graph.Graph, graph.NodeID, float64, int, TransitionRule) *ReachTree
			oracle func(*graph.Graph, graph.NodeID, float64, int, TransitionRule) mapLevels
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
					if got, want := diffNodes(ta, tb, tol), mapDiffNodes(ma, mb, tol); !slices.Equal(got, want) {
						t.Fatalf("%s: diff (tol=%g) = %v, map form %v", name, tol, got, want)
					}
				}
				if len(diffNodes(ta, ta, 0)) != 0 {
					t.Fatalf("%s: tree differs from itself", name)
				}
				if got, want := diffNodes(ta, nil, 0), mapNodes(ma); !slices.Equal(got, want) {
					t.Fatalf("%s: diff against no tree = %v, want %v", name, got, want)
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
