package graph

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
