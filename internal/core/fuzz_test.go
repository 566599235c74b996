package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"crashsim/internal/graph"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs dry, so every input decodes to some case.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzGraph decodes a graph of 2–24 nodes from in: the node count, the
// orientation, then up to 3n edges as (tail, head) bytes, skipping
// self-loops and repeats.
func fuzzGraph(t *testing.T, in *fuzzBytes) *graph.Graph {
	t.Helper()
	n := 2 + in.next()%23
	directed := in.next()&1 == 1
	b := graph.NewBuilder(n, directed)
	seen := make([]bool, n*n)
	for m := in.next() % (3 * n); m > 0; m-- {
		x, y := in.next()%n, in.next()%n
		if !directed && x > y {
			x, y = y, x
		}
		if x == y || seen[x*n+y] {
			continue
		}
		seen[x*n+y] = true
		b.AddEdge(graph.NodeID(x), graph.NodeID(y))
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzPush is the differential check of the one level push: on a
// random graph of 2–24 nodes, revReachInto into a dirty arena must hold
// the map oracle's exact levels for either transition rule, either edge
// direction, a decay factor in (0.2, 0.9), a prune threshold τ (0, or
// up to 1, which can empty a level early) and lmax up to 40, with or
// without its probe index, and the index must answer every probe like
// a search of the levels. core.Push must hand over the same levels.
func FuzzPush(f *testing.F) {
	f.Add([]byte{10, 1, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 1, 0, 0, 100, 0, 8, 1, 3})
	f.Add([]byte{16, 0, 48, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 1, 1, 200, 40, 30, 0, 5})
	f.Add([]byte{6, 1, 12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 2, 0, 1, 128, 9, 20, 1, 4})
	f.Add([]byte("00c010000000101")) // an indexed tree whose levels empty early, in a dirty arena
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		g := fuzzGraph(t, &in)
		n := g.NumNodes()
		rule := TransitionRule(in.next() % 2)
		dir := Direction(in.next() % 2)
		c := 0.2 + 0.7*float64(in.next())/255
		tau := 0.0
		if k := in.next(); k%4 != 0 {
			tau = float64(k) / 255
		}
		lmax := 1 + in.next()%40
		indexed := in.next()&1 == 1
		u := graph.NodeID(in.next() % n)
		other := graph.NodeID(in.next() % n)

		want := pushMapOracle(g, u, c, lmax, rule, tau, dir)
		dirty := revReachInto(new(ReachTree), g, other, 0.6, lmax+3, TransitionExact, 0, InEdges, true)
		got := revReachInto(dirty, g, u, c, lmax, rule, tau, dir, indexed)
		if !sameAsMap(got, want) {
			t.Fatalf("push (rule %v, dir %v, c %g, tau %g, lmax %d) differs from the map oracle", rule, dir, c, tau, lmax)
		}
		if indexed {
			checkProbeIndex(t, "push", got, n)
		} else if got.words != 0 {
			t.Fatalf("unindexed push has %d index words per level", got.words)
		}
		Push(g, u, c, lmax, rule, tau, dir, func(pt *ReachTree) {
			if !bitEqualTrees(pt, got) {
				t.Fatal("Push levels differ from revReachInto's")
			}
		})
	})
}

// FuzzEstimatePaths is the differential check of the one estimate
// path. The input decodes to a graph of 2–24 nodes, a source batch
// whose first source repeats at the end, a candidate set (nil, or a
// subset that may hold a source), a meeting rule, 1–4 workers, n_r,
// a seed and the prefilter/non-backtracking switches (flag bits 1 and
// 2; bit 4 is unused).
// MultiSource, SingleSourceCtx per source, SingleSourceWithTree, the
// Score fields of SingleSourceWithError and the two-pass reference
// kernel (legacySingleSource: sampleWalk + walkContribution, no
// prefilter) must then agree bit for bit on every candidate.
func FuzzEstimatePaths(f *testing.F) {
	f.Add([]byte{10, 1, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 1, 40, 7, 0, 3, 0, 4, 9, 0})
	f.Add([]byte{16, 0, 48, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 2, 3, 25, 1, 1, 4, 0, 7, 2, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1})
	f.Add([]byte{3, 1, 2, 0, 1, 1, 2, 1, 0, 0, 9, 3, 6, 1, 0, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		g := fuzzGraph(t, &in)
		n := g.NumNodes()
		flags := in.next()
		p := Params{
			Meeting:          MeetingRule(in.next() % 3),
			Workers:          1 + in.next()%4,
			Iterations:       1 + in.next()%40,
			Seed:             uint64(in.next()),
			DisablePrefilter: flags&1 != 0,
			NonBacktracking:  flags&2 != 0,
		}
		sources := make([]graph.NodeID, 1+in.next()%4)
		for i := range sources {
			sources[i] = graph.NodeID(in.next() % n)
		}
		sources = append(sources, sources[0])
		var omega []graph.NodeID
		if in.next()&1 == 1 {
			omega = []graph.NodeID{}
			for v := 0; v < n; v++ {
				if in.next()&1 == 1 {
					omega = append(omega, graph.NodeID(v))
				}
			}
		}
		want := n
		if omega != nil {
			want = len(omega)
		}

		batch, err := MultiSource(context.Background(), g, sources, omega, p)
		if err != nil {
			t.Fatalf("MultiSource: %v", err)
		}
		for i, u := range sources {
			single, err := SingleSourceCtx(context.Background(), g, u, omega, p)
			if err != nil {
				t.Fatalf("SingleSourceCtx(%d): %v", u, err)
			}
			tree, err := BuildTree(g, u, p)
			if err != nil {
				t.Fatal(err)
			}
			withTree, err := SingleSourceWithTree(g, u, omega, p, tree)
			if err != nil {
				t.Fatalf("SingleSourceWithTree(%d): %v", u, err)
			}
			withErr, err := SingleSourceWithError(g, u, omega, p)
			if err != nil {
				t.Fatalf("SingleSourceWithError(%d): %v", u, err)
			}
			legacy, err := legacySingleSource(g, u, omega, p)
			if err != nil {
				t.Fatalf("legacySingleSource(%d): %v", u, err)
			}
			if len(single) != want || len(batch[i]) != want || len(withTree) != want || len(withErr) != want || len(legacy) != want {
				t.Fatalf("source %d: %d single, %d batch, %d with-tree, %d with-error, %d reference scores, want %d",
					u, len(single), len(batch[i]), len(withTree), len(withErr), len(legacy), want)
			}
			for v, s := range single {
				bs, ok1 := batch[i][v]
				ts, ok2 := withTree[v]
				es, ok3 := withErr[v]
				ls, ok4 := legacy[v]
				if !ok1 || !ok2 || !ok3 || !ok4 {
					t.Fatalf("source %d node %d: missing from a path's result (batch %v, with-tree %v, with-error %v, reference %v)", u, v, ok1, ok2, ok3, ok4)
				}
				for _, other := range []struct {
					path  string
					score float64
				}{{"MultiSource", bs}, {"SingleSourceWithTree", ts}, {"SingleSourceWithError", es.Score}, {"legacySingleSource", ls}} {
					if math.Float64bits(other.score) != math.Float64bits(s) {
						t.Fatalf("source %d node %d: %s %v, SingleSourceCtx %v (params %+v)", u, v, other.path, other.score, s, p)
					}
				}
			}
		}
	})
}

// FuzzPatch is the differential check of ReachTree.Patch against
// BuildTree. The input decodes to a graph of 2–24 nodes (directed or
// undirected), an edge delta that adds absent edges and deletes present
// ones, a source, a transition rule, an Lmax, a diff tolerance and the
// switches for the two parameter fallbacks. Then:
//   - ok is false exactly when a documented fallback applies:
//     non-backtracking params or an Lmax other than the tree's;
//   - otherwise the tree Patch writes into a dirty arena (left over
//     from a larger graph and a larger Lmax) equals BuildTree on the new
//     graph bit for bit: levels, probabilities and every probe of the
//     index;
//   - its diff equals DiffNodes against the old tree, and an empty diff
//     at tolerance zero hands back the old tree itself.
func FuzzPatch(f *testing.F) {
	f.Add([]byte{10, 1, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 4, 1, 2, 3, 4, 0, 3, 9, 0, 2, 0})
	f.Add([]byte{16, 0, 48, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 6, 2, 3, 7, 7, 1, 4, 2, 5, 1, 1, 2, 0})
	f.Add([]byte{3, 1, 2, 0, 1, 1, 2, 1, 2, 0, 1, 1, 1, 0, 4, 1, 0})
	f.Add([]byte{24, 1, 60, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 1, 3, 8, 0, 3, 1, 2, 4, 0, 1})
	// The path 0 → 1 → 2 (the delta adds 1 → 2): source 2's walk dies
	// after two steps, so the patched tree's later levels are empty and
	// their index words must be written as zeros over the dirty arena.
	f.Add([]byte{1, 1, 1, 0, 1, 1, 1, 2, 2, 0, 0, 9, 0, 3})
	// Source 0's tree is 0 ← 1 ← 2; the delta adds 5 → 4 and deletes
	// 4 → 3, touching no node of it. Under the exact rule Patch hands the
	// old tree back without paying the closure.
	f.Add([]byte{4, 1, 3, 1, 0, 2, 1, 4, 3, 2, 5, 4, 4, 3, 0, 0, 0, 2, 0, 0})
	// The same shape under the paper-literal rule: source 1's only
	// in-neighbor 0 has in-degree 0, so it gets no mass and is outside
	// the support. Adding 2 → 0 gives it mass, so the shortcut must not
	// apply to this rule.
	f.Add([]byte{1, 1, 1, 0, 1, 1, 2, 0, 1, 0, 1, 0, 0, 0})
	big := randomTestGraph(f, 150, 600, true, 5)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 2 + in.next()%23
		directed := in.next()&1 == 1
		edge := func() (graph.Edge, bool) {
			x, y := in.next()%n, in.next()%n
			if !directed && x > y {
				x, y = y, x
			}
			return graph.Edge{X: graph.NodeID(x), Y: graph.NodeID(y)}, x != y
		}
		present := map[graph.Edge]bool{}
		var old []graph.Edge
		for m := in.next() % (3 * n); m > 0; m-- {
			if e, ok := edge(); ok && !present[e] {
				present[e] = true
				old = append(old, e)
			}
		}
		var add, del []graph.Edge
		touched := map[graph.Edge]bool{}
		for m := in.next() % 8; m > 0; m-- {
			e, ok := edge()
			if !ok || touched[e] {
				continue
			}
			touched[e] = true
			if present[e] {
				del = append(del, e)
			} else {
				add = append(add, e)
			}
		}
		build := func(edges []graph.Edge, skip map[graph.Edge]bool) *graph.Graph {
			b := graph.NewBuilder(n, directed)
			for _, e := range edges {
				if !skip[e] {
					b.AddEdge(e.X, e.Y)
				}
			}
			g, err := b.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		deleted := map[graph.Edge]bool{}
		for _, e := range del {
			deleted[e] = true
		}
		g0, g1 := build(old, nil), build(append(slices.Clone(old), add...), deleted)

		u := graph.NodeID(in.next() % n)
		flags := in.next()
		p := Params{
			Transition: TransitionRule(in.next() % 2),
			Lmax:       1 + in.next()%40,
			Eps:        0.5,
		}.withDefaults()
		tol := []float64{0, 1e-12, 1e-3}[in.next()%3]
		// This byte chose a patch size gate once; it is still consumed
		// so the corpus decodes the same.
		in.next()

		prev, err := BuildTree(g0, u, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildTree(g1, u, p)
		if err != nil {
			t.Fatal(err)
		}
		q := p
		q.NonBacktracking = flags&1 != 0
		if flags&2 != 0 {
			q.Lmax++
		}
		dst := RevReach(big, 7, p.C, p.Lmax+5, p.Transition)
		got, diff, ok := prev.Patch(dst, g1, add, del, q, tol)

		if wantOK := !q.NonBacktracking && q.Lmax == p.Lmax; ok != wantOK {
			t.Fatalf("ok = %v, want %v (non-backtracking %v, lmax %d for a tree of %d)",
				ok, wantOK, q.NonBacktracking, q.Lmax, p.Lmax)
		}
		if !ok {
			return
		}
		if got != prev && got != dst {
			t.Fatal("Patch returned neither the old tree nor the destination arena")
		}
		if !bitEqualTrees(got, want) {
			t.Fatalf("patched tree differs from BuildTree on the new graph (add %v, del %v)", add, del)
		}
		if got.words != want.words {
			t.Fatalf("patched tree has %d index words per level, BuildTree %d", got.words, want.words)
		}
		for step := 0; step < want.NumLevels(); step++ {
			for v := graph.NodeID(0); int(v) < n; v++ {
				if a, b := got.Prob(step, v), want.Prob(step, v); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("probe (%d, %d): patched %v, BuildTree %v", step, v, a, b)
				}
			}
		}
		if wantDiff := want.DiffNodes(prev, tol); !slices.Equal(diff, wantDiff) && len(diff)+len(wantDiff) > 0 {
			t.Fatalf("diff %v, DiffNodes %v (tol %g)", diff, wantDiff, tol)
		}
		if tol == 0 && len(want.DiffNodes(prev, 0)) == 0 && got != prev {
			t.Fatal("bit-identical patch did not hand back the old tree")
		}
	})
}

// affectedClosure counts the nodes within lmax reverse (in-edge) hops
// of the delta's endpoints on g, the closure Patch re-expands, counted
// independently of Patch.
func affectedClosure(g *graph.Graph, add, del []graph.Edge, lmax int) int {
	seen := map[graph.NodeID]bool{}
	var frontier []graph.NodeID
	for _, e := range slices.Concat(add, del) {
		for _, v := range []graph.NodeID{e.X, e.Y} {
			if !seen[v] {
				seen[v] = true
				frontier = append(frontier, v)
			}
		}
	}
	for d := 0; d < lmax && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, x := range frontier {
			for _, v := range g.In(x) {
				if !seen[v] {
					seen[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return len(seen)
}
