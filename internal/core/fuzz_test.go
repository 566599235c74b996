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

// FuzzTreeDiff is the differential check of diffInto, the tree diff
// CrashSim-T runs after every rebuild. The input decodes to a graph of
// 2–24 nodes (fuzzGraph), an edge delta that adds absent edges and
// deletes present ones, a source, a transition rule, an Lmax and a diff
// tolerance. BuildTree builds the source's tree before and after the
// delta. Then, on a dirty changed buffer:
//   - the marked nodes equal the map-form diff of the two trees' levels
//     (appearances and vanishings included), and
//   - same holds exactly when every level's nodes and probability bits
//     match.
func FuzzTreeDiff(f *testing.F) {
	f.Add([]byte{10, 1, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 4, 1, 2, 3, 4, 0, 3, 9, 0, 2, 0})
	f.Add([]byte{16, 0, 48, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 6, 2, 3, 7, 7, 1, 4, 2, 5, 1, 1, 2, 0})
	f.Add([]byte{3, 1, 2, 0, 1, 1, 2, 1, 2, 0, 1, 1, 1, 0, 4, 1, 0})
	f.Add([]byte{24, 1, 60, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 1, 3, 8, 0, 3, 1, 2, 4, 0, 1})
	// The delta adds 1 → 2 to the path 0 → 1: source 2 has no
	// in-neighbor before it and a two-step reverse path after it, so
	// entries appear at levels 1 and 2 and the later levels stay empty.
	f.Add([]byte{1, 1, 1, 0, 1, 1, 1, 2, 2, 0, 0, 9, 0, 3})
	// Source 0's tree is 0 ← 1 ← 2; the delta adds 5 → 4 and deletes
	// 4 → 3, touching no node of it, so the trees are the same.
	f.Add([]byte{4, 1, 3, 1, 0, 2, 1, 4, 3, 2, 5, 4, 4, 3, 0, 0, 0, 2, 0, 0})
	// The same shape under the paper-literal rule: source 1's only
	// in-neighbor 0 has in-degree 0, so it gets no mass and is outside
	// the tree. Adding 2 → 0 gives it mass: a delta that misses the old
	// tree's support still changes the tree.
	f.Add([]byte{1, 1, 1, 0, 1, 1, 2, 0, 1, 0, 1, 0, 0, 0})
	// Undirected 1 – 7; the delta adds 0 – 1. Under the paper-literal
	// rule source 7's level-1 mass at 1 halves (1's degree doubles) while
	// every level keeps its nodes, so only the probability bits tell the
	// trees apart.
	f.Add([]byte{10, 0, 1, 1, 7, 1, 0, 1, 7, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		g0 := fuzzGraph(t, &in)
		n, directed := g0.NumNodes(), g0.Directed()
		var add []graph.Edge
		deleted := map[graph.Edge]bool{}
		touched := map[graph.Edge]bool{}
		for m := in.next() % 8; m > 0; m-- {
			x, y := in.next()%n, in.next()%n
			if !directed && x > y {
				x, y = y, x
			}
			e := graph.Edge{X: graph.NodeID(x), Y: graph.NodeID(y)}
			if x == y || touched[e] {
				continue
			}
			touched[e] = true
			if g0.HasEdge(e.X, e.Y) {
				deleted[e] = true
			} else {
				add = append(add, e)
			}
		}
		b := graph.NewBuilder(n, directed)
		for _, e := range append(g0.Edges(), add...) {
			if !deleted[e] {
				b.AddEdge(e.X, e.Y)
			}
		}
		g1, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}

		u := graph.NodeID(in.next() % n)
		// This byte once chose parameter fallbacks; it is still consumed
		// so the seeds decode the same.
		in.next()
		p := Params{
			Transition: TransitionRule(in.next() % 2),
			Lmax:       1 + in.next()%40,
			Eps:        0.5,
		}
		tol := []float64{0, 1e-12, 1e-3}[in.next()%3]

		before, err := BuildTree(g0, u, p)
		if err != nil {
			t.Fatal(err)
		}
		after, err := BuildTree(g1, u, p)
		if err != nil {
			t.Fatal(err)
		}
		changed := nodeBitset(make([]uint64, indexWords(n)))
		for i := range changed {
			changed[i] = ^uint64(0)
		}
		same := after.diffInto(before, tol, changed)
		if got, want := changed.appendNodes(nil), mapDiffNodes(treeLevels(after), treeLevels(before), tol); !slices.Equal(got, want) {
			t.Fatalf("diff %v, map form %v (tol %g, add %v, del %v)", got, want, tol, add, deleted)
		}
		if want := bitEqualTrees(after, before); same != want {
			t.Fatalf("same = %v, bit-equal levels %v (add %v, del %v)", same, want, add, deleted)
		}
	})
}
