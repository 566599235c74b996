package sling

import (
	"math"
	"sort"

	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// The map-based index below is the form SLING was first built in: one
// []entry per node plus a per-step map from node to the origins whose
// distributions pass through it. It is kept only as the differential
// reference for the flat index Build compiles (TestFlatBitIdentical),
// with its own map push: the one core.Push distribution runs must
// reproduce it bit for bit.

// occurrence links an index position back to the node whose
// distribution contains it, for the inverted index.
type occurrence struct {
	origin graph.NodeID
	prob   float64
}

type oracleIndex struct {
	dist [][]entry                       // per node: truncated hitting distribution
	inv  []map[graph.NodeID][]occurrence // per step: node -> walks passing through
	d    []float64                       // per node: never-meet-again correction
}

// oracleBuild is the map build: sequential pushes, the inverted index
// appended in node order, and its own copy of the coupled d sampler.
func oracleBuild(g *graph.Graph, opt Options) *oracleIndex {
	o := opt.withDefaults()
	n := g.NumNodes()
	ix := &oracleIndex{
		dist: make([][]entry, n),
		inv:  make([]map[graph.NodeID][]occurrence, o.Lmax+1),
		d:    make([]float64, n),
	}
	for t := range ix.inv {
		ix.inv[t] = make(map[graph.NodeID][]occurrence)
	}
	for v := 0; v < n; v++ {
		ix.dist[v] = push(g, graph.NodeID(v), o)
		for _, e := range ix.dist[v] {
			ix.inv[e.step][e.node] = append(ix.inv[e.step][e.node],
				occurrence{origin: graph.NodeID(v), prob: e.prob})
		}
	}
	sc := math.Sqrt(o.C)
	for x := 0; x < n; x++ {
		r := rng.Split(o.Seed, uint64(x))
		never := 0
		for s := 0; s < o.DSamples; s++ {
			a, b := graph.NodeID(x), graph.NodeID(x)
			met := false
			for t := 1; t <= o.Lmax; t++ {
				if r.Float64() >= sc || r.Float64() >= sc {
					break
				}
				ia, ib := g.In(a), g.In(b)
				if len(ia) == 0 || len(ib) == 0 {
					break
				}
				a = ia[r.IntN(len(ia))]
				b = ib[r.IntN(len(ib))]
				if a == b {
					met = true
					break
				}
			}
			if !met {
				never++
			}
		}
		ix.d[x] = float64(never) / float64(o.DSamples)
	}
	return ix
}

// push computes the truncated hitting distribution of v: the probability
// of a √c-walk from v being at each node after each step, dropping
// entries below the pruning threshold. Step 0 (the node itself) is not
// stored; meetings at step 0 only concern u = v, which queries handle
// directly.
func push(g *graph.Graph, v graph.NodeID, o Options) []entry {
	sc := math.Sqrt(o.C)
	cur := map[graph.NodeID]float64{v: 1}
	var out []entry
	var order []graph.NodeID
	for t := 1; t <= o.Lmax; t++ {
		next := make(map[graph.NodeID]float64, len(cur)*2)
		order = order[:0]
		for x := range cur {
			order = append(order, x)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, x := range order {
			in := g.In(x)
			if len(in) == 0 {
				continue
			}
			w := cur[x] * sc / float64(len(in))
			if w < o.Prune {
				continue
			}
			for _, y := range in {
				next[y] += w
			}
		}
		if len(next) == 0 {
			break
		}
		// Emit in sorted node order so the index layout (and therefore
		// floating-point summation order at query time) is deterministic.
		order = order[:0]
		for x := range next {
			order = append(order, x)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, x := range order {
			if p := next[x]; p >= o.Prune {
				out = append(out, entry{step: int32(t), node: x, prob: p})
			}
		}
		cur = next
	}
	return out
}

// singleSource is the map query loop.
func (ix *oracleIndex) singleSource(u graph.NodeID) map[graph.NodeID]float64 {
	scores := make(map[graph.NodeID]float64, 64)
	for _, e := range ix.dist[u] {
		for _, occ := range ix.inv[e.step][e.node] {
			scores[occ.origin] += e.prob * occ.prob * ix.d[e.node]
		}
	}
	scores[u] = 1
	return scores
}

func (ix *oracleIndex) distSize() int {
	total := 0
	for _, d := range ix.dist {
		total += len(d)
	}
	return total
}
