package graph

import "slices"

// Components computes weakly connected components (treating every arc as
// undirected). It returns a component id per node (ids are dense,
// ordered by smallest member) and the number of components. The dataset
// generators use it to report giant-component coverage, and query
// tooling uses it to sample sources from the giant component the way the
// paper's experiments implicitly do.
func Components(g *Graph) (ids []int, count int) {
	n := g.NumNodes()
	ids = make([]int, n)
	for i := range ids {
		ids[i] = -1
	}
	var queue []NodeID
	for start := NodeID(0); int(start) < n; start++ {
		if ids[start] != -1 {
			continue
		}
		ids[start] = count
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, adj := range [][]NodeID{g.In(v), g.Out(v)} {
				for _, u := range adj {
					if ids[u] == -1 {
						ids[u] = count
						queue = append(queue, u)
					}
				}
			}
		}
		count++
	}
	return ids, count
}

// GiantComponent returns the sorted nodes of the largest weakly
// connected component.
func GiantComponent(g *Graph) []NodeID {
	ids, count := Components(g)
	if count == 0 {
		return nil
	}
	sizes := make([]int, count)
	for _, id := range ids {
		sizes[id]++
	}
	best := 0
	for id, s := range sizes {
		if s > sizes[best] {
			best = id
		}
	}
	out := make([]NodeID, 0, sizes[best])
	for v, id := range ids {
		if id == best {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Transpose returns the graph with every arc reversed. For undirected
// graphs it returns an identical copy. SimRank over out-neighbors (the
// "co-citation" variant some applications use) is SimRank over
// in-neighbors of the transpose.
func Transpose(g *Graph) *Graph {
	// The transpose's arcs grouped by tail are the original in-lists
	// (for undirected graphs these equal the out-lists), so they feed
	// the sorted CSR build directly.
	t := newCSR(g.n, g.directed, len(g.inAdj))
	copy(t.outOff, g.inOff)
	t.fillSorted(g.In)
	return t
}

// InducedSubgraph returns the subgraph over the given nodes (the
// paper's E(Ω)): nodes are renumbered densely in sorted order, and the
// returned mapping translates new ids back to original ones.
func InducedSubgraph(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	keep := append([]NodeID(nil), nodes...)
	slices.Sort(keep)
	// Deduplicate.
	w := 0
	for i, v := range keep {
		if i == 0 || keep[w-1] != v {
			keep[w] = v
			w++
		}
	}
	keep = keep[:w]
	toNew := make(map[NodeID]NodeID, len(keep))
	for i, v := range keep {
		toNew[v] = NodeID(i)
	}
	var arcs []Edge
	for _, v := range keep {
		for _, x := range g.In(v) {
			if nx, ok := toNew[x]; ok {
				arcs = append(arcs, Edge{X: nx, Y: toNew[v]})
			}
		}
	}
	return fromArcs(len(keep), g.directed, arcs), keep
}

// CountInducedEdges returns |E(Ω)| without materializing the subgraph:
// the number of edges of g with both endpoints in the node set.
func CountInducedEdges(g *Graph, nodes map[NodeID]struct{}) int {
	count := 0
	for v := range nodes {
		for _, x := range g.In(v) {
			if _, ok := nodes[x]; ok {
				count++
			}
		}
	}
	if !g.directed {
		count /= 2
	}
	return count
}

// DegreeHistogram returns counts[d] = number of nodes with in-degree d.
func DegreeHistogram(g *Graph) []int {
	maxDeg := 0
	for v := NodeID(0); int(v) < g.n; v++ {
		if d := g.InDegree(v); d > maxDeg {
			maxDeg = d
		}
	}
	counts := make([]int, maxDeg+1)
	for v := NodeID(0); int(v) < g.n; v++ {
		counts[g.InDegree(v)]++
	}
	return counts
}
