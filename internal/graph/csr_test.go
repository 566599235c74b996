package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// sortedCSRReference is the comparison-sort CSR build the counting
// sweeps replaced: scatter the arcs into both CSRs in arc order, then
// sort every row. The sweeps, and Merge, must reproduce its arrays
// exactly.
func sortedCSRReference(n int, directed bool, arcs []Edge) *Graph {
	g := newCSR(n, directed, len(arcs))
	for _, e := range arcs {
		g.inOff[e.Y+1]++
		g.outOff[e.X+1]++
	}
	for v := 0; v < n; v++ {
		g.inOff[v+1] += g.inOff[v]
		g.outOff[v+1] += g.outOff[v]
	}
	inNext := slices.Clone(g.inOff[:n])
	outNext := slices.Clone(g.outOff[:n])
	for _, e := range arcs {
		g.inAdj[inNext[e.Y]] = e.X
		inNext[e.Y]++
		g.outAdj[outNext[e.X]] = e.Y
		outNext[e.X]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(g.inAdj[g.inOff[v]:g.inOff[v+1]])
		slices.Sort(g.outAdj[g.outOff[v]:g.outOff[v+1]])
	}
	return g
}

// randomArcs returns a deduplicated, self-loop-free arc list in random
// order (both arcs of every edge for undirected graphs) plus the edge
// list a Builder would receive.
func randomArcs(r *rand.Rand, n, m int, directed bool) (arcs, edges []Edge) {
	seen := map[Edge]bool{}
	for len(edges) < m {
		e := Edge{X: NodeID(r.IntN(n)), Y: NodeID(r.IntN(n))}
		key := e
		if !directed && key.X > key.Y {
			key.X, key.Y = key.Y, key.X
		}
		if e.X == e.Y || seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, e)
		arcs = append(arcs, e)
		if !directed {
			arcs = append(arcs, Edge{X: e.Y, Y: e.X})
		}
	}
	r.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	return arcs, edges
}

func sameCSR(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.n != want.n || got.directed != want.directed ||
		!slices.Equal(got.inOff, want.inOff) || !slices.Equal(got.inAdj, want.inAdj) ||
		!slices.Equal(got.outOff, want.outOff) || !slices.Equal(got.outAdj, want.outAdj) {
		t.Fatalf("%s: CSR differs from the sort-based reference", what)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestSortFreeCSRMatchesReference: the counting-sweep build yields the
// exact arrays of the sort-based one, hence the same content version,
// on random directed and undirected arc lists, through fromEdges and
// Builder.Freeze.
func TestSortFreeCSRMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.IntN(80)
		directed := trial%2 == 0
		maxM := n * (n - 1)
		if !directed {
			maxM /= 2
		}
		m := 0
		if maxM > 0 {
			m = r.IntN(min(maxM, 4*n) + 1)
		}
		arcs, edges := randomArcs(r, n, m, directed)
		want := sortedCSRReference(n, directed, arcs)
		sameCSR(t, "fromEdges", fromEdges(n, directed, edges), want)

		b, err := NewBuilder(n, directed).AddEdges(edges).Freeze()
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, "Builder.Freeze", b, want)
		if got, ref := b.Version(), contentVersion(n, directed, want.inOff, want.inAdj); got != ref {
			t.Fatalf("content version %#x, reference %#x", got, ref)
		}
	}
}

// TestMergeAfterChurnMatchesReference: a chain of Merges under random
// churn, each merging a batch of deletions and insertions into the
// previous graph, must produce the sorted CSR of the surviving edge set
// and carry the version it was given.
func TestMergeAfterChurnMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, directed := range []bool{true, false} {
		const n = 50
		g := NewBuilder(n, directed).MustFreeze()
		live := map[Edge]bool{}
		var add, del []Edge
		batch := map[Edge]bool{} // edges already in this batch
		for step := 0; step < 2000; step++ {
			e := Edge{X: NodeID(r.IntN(n)), Y: NodeID(r.IntN(n))}
			if !directed && e.X > e.Y {
				e.X, e.Y = e.Y, e.X
			}
			if e.X == e.Y || batch[e] {
				continue
			}
			batch[e] = true
			given := e // Merge takes an undirected edge either way round
			if !directed && r.IntN(2) == 0 {
				given.X, given.Y = e.Y, e.X
			}
			if live[e] {
				del = append(del, given)
				delete(live, e)
			} else {
				add = append(add, given)
				live[e] = true
			}
			if step%250 != 249 {
				continue
			}
			var arcs []Edge
			for e := range live {
				arcs = append(arcs, e)
				if !directed {
					arcs = append(arcs, Edge{X: e.Y, Y: e.X})
				}
			}
			g = g.Merge(add, del, uint64(step))
			sameCSR(t, "Merge", g, sortedCSRReference(n, directed, arcs))
			if g.Version() != uint64(step) {
				t.Fatalf("version %d, want %d", g.Version(), step)
			}
			add, del = nil, nil
			clear(batch)
		}
	}
}

// BenchmarkBuilderFreeze prices Builder.Freeze on a uniform random
// directed edge list of 30k nodes and 300k edges.
func BenchmarkBuilderFreeze(b *testing.B) {
	r := rand.New(rand.NewPCG(5, 6))
	const n = 30000
	_, edges := randomArcs(r, n, 10*n, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewBuilder(n, true).AddEdges(edges).Freeze(); err != nil {
			b.Fatal(err)
		}
	}
}
