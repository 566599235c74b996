// Package tsf implements a TSF-style baseline (Shao et al., PVLDB 2015:
// "An Efficient Similarity Search Framework for SimRank over Large
// Dynamic Graphs"), the other index-based dynamic SimRank method the
// paper's related-work section discusses.
//
// The index stores Rg "one-way graphs": independent samples of one
// uniformly chosen in-neighbor parent per node. Within one one-way
// graph every node has a unique reverse path (follow parents), and two
// synchronized paths that meet coalesce — exactly SimRank's coupled-walk
// semantics — so sim(u, v) is estimated as the average of c^τ over the
// samples, where τ is the first step at which the paths of u and v
// coincide. A single sample prices all candidates at once, which makes
// single-source queries cheap.
//
// On an edge update only the parent slots of the edge's head need
// revisiting (an insertion steals the slot with probability 1/|I(y)|,
// preserving uniformity; a deletion resamples slots that pointed at the
// removed neighbor), giving incremental maintenance like READS.
//
// Simplification vs the original system: a walk revisiting a node reuses
// the same stored parent instead of resampling, which biases estimates
// on short cycles; the original's query-time resampling stage is folded
// into Rg. See DESIGN.md.
package tsf

import (
	"fmt"

	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// Options configures the index.
type Options struct {
	// C is the SimRank decay factor in (0,1). Default 0.6.
	C float64
	// Rg is the number of one-way graphs. Default 100.
	Rg int
	// MaxLen caps the coupled-path length; the truncated tail carries
	// at most c^MaxLen estimate mass. Default 10.
	MaxLen int
	// Seed makes index construction and maintenance deterministic.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.6
	}
	if o.Rg == 0 {
		o.Rg = 100
	}
	if o.MaxLen == 0 {
		o.MaxLen = 10
	}
	return o
}

// Validate checks option ranges after defaulting.
func (o Options) Validate() error {
	q := o.withDefaults()
	if q.C <= 0 || q.C >= 1 {
		return fmt.Errorf("tsf: decay factor c=%g outside (0,1)", q.C)
	}
	if q.Rg < 1 {
		return fmt.Errorf("tsf: one-way graph count must be >= 1, got %d", q.Rg)
	}
	if q.MaxLen < 1 {
		return fmt.Errorf("tsf: max path length must be >= 1, got %d", q.MaxLen)
	}
	return nil
}

// noParent marks nodes without in-neighbors in a one-way graph.
const noParent = graph.NodeID(-1)

// Index holds the Rg one-way graphs over a private copy of the graph.
type Index struct {
	opt    Options
	g      *graph.DiGraph
	parent [][]graph.NodeID // parent[k][v] = sampled in-neighbor of v
	// version counts resamplings per (k, v) so updates draw fresh
	// deterministic randomness.
	version [][]uint32
}

// Build samples the one-way graphs from g, keeping a private, updatable
// copy of it.
func Build(g *graph.Graph, opt Options) (*Index, error) {
	o := opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	ix := &Index{
		opt:     o,
		g:       g.Thaw(),
		parent:  make([][]graph.NodeID, o.Rg),
		version: make([][]uint32, o.Rg),
	}
	for k := 0; k < o.Rg; k++ {
		ix.parent[k] = make([]graph.NodeID, n)
		ix.version[k] = make([]uint32, n)
		for v := 0; v < n; v++ {
			ix.parent[k][v] = ix.sampleParent(k, graph.NodeID(v))
		}
	}
	return ix, nil
}

// sampleParent draws a fresh uniform parent for (k, v) and bumps the
// version so the next draw differs.
func (ix *Index) sampleParent(k int, v graph.NodeID) graph.NodeID {
	in := ix.g.In(v)
	if len(in) == 0 {
		return noParent
	}
	ver := ix.version[k][v]
	ix.version[k][v]++
	r := rng.Split(ix.opt.Seed^uint64(k)<<40^uint64(ver)<<8, uint64(v))
	return in[r.IntN(len(in))]
}

// SingleSource estimates sim(u, ·) for all nodes: per one-way graph,
// u's unique path is materialized and every node's path is stepped in
// lockstep against it, contributing c^τ at the first coincidence.
func (ix *Index) SingleSource(u graph.NodeID) (map[graph.NodeID]float64, error) {
	n := ix.g.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("tsf: source %d out of range for n=%d", u, n)
	}
	scores := make(map[graph.NodeID]float64, 64)
	inv := 1 / float64(ix.opt.Rg)
	pathU := make([]graph.NodeID, ix.opt.MaxLen+1)
	for k := 0; k < ix.opt.Rg; k++ {
		parent := ix.parent[k]
		// Materialize u's path; stop at dead ends.
		lenU := 0
		pathU[0] = u
		for t := 1; t <= ix.opt.MaxLen; t++ {
			p := parent[pathU[t-1]]
			if p == noParent {
				break
			}
			pathU[t] = p
			lenU = t
		}
		if lenU == 0 {
			continue
		}
		for v := graph.NodeID(0); int(v) < n; v++ {
			if v == u {
				continue
			}
			cur := v
			weight := 1.0
			for t := 1; t <= lenU; t++ {
				cur = parent[cur]
				if cur == noParent {
					break
				}
				weight *= ix.opt.C
				if cur == pathU[t] {
					scores[v] += weight * inv
					break
				}
			}
		}
	}
	scores[u] = 1
	return scores, nil
}

// ApplyEdge updates the graph copy and repairs the affected parent
// slots: only the head's slots can change (both endpoints when
// undirected).
func (ix *Index) ApplyEdge(e graph.Edge, add bool) error {
	var err error
	if add {
		err = ix.g.AddEdge(e.X, e.Y)
	} else {
		err = ix.g.RemoveEdge(e.X, e.Y)
	}
	if err != nil {
		return fmt.Errorf("tsf: applying edge update: %w", err)
	}
	heads := [][2]graph.NodeID{{e.Y, e.X}}
	if !ix.g.Directed() {
		heads = append(heads, [2]graph.NodeID{e.X, e.Y})
	}
	for _, h := range heads {
		node, other := h[0], h[1]
		deg := len(ix.g.In(node))
		for k := 0; k < ix.opt.Rg; k++ {
			switch {
			case add:
				// The new neighbor steals the slot with probability
				// 1/deg, which keeps the slot uniform over the new
				// in-neighbor list.
				if deg == 1 {
					ix.parent[k][node] = other
					continue
				}
				ver := ix.version[k][node]
				ix.version[k][node]++
				r := rng.Split(ix.opt.Seed^0xabcd^uint64(k)<<40^uint64(ver)<<8, uint64(node))
				if r.IntN(deg) == 0 {
					ix.parent[k][node] = other
				}
			default:
				// Deletion invalidates slots pointing at the removed
				// neighbor; also repair dead ends when edges return.
				if ix.parent[k][node] == other || ix.parent[k][node] == noParent {
					ix.parent[k][node] = ix.sampleParent(k, node)
				}
			}
		}
	}
	return nil
}

// ApplyDelta applies deletions then insertions.
func (ix *Index) ApplyDelta(add, del []graph.Edge) error {
	for _, e := range del {
		if err := ix.ApplyEdge(e, false); err != nil {
			return err
		}
	}
	for _, e := range add {
		if err := ix.ApplyEdge(e, true); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the index invariant: every parent slot is either
// noParent (for dangling nodes) or a current in-neighbor.
func (ix *Index) Validate() error {
	for k := range ix.parent {
		for v, p := range ix.parent[k] {
			in := ix.g.In(graph.NodeID(v))
			if p == noParent {
				if len(in) != 0 {
					return fmt.Errorf("tsf: slot (%d,%d) empty but node has %d in-neighbors", k, v, len(in))
				}
				continue
			}
			found := false
			for _, x := range in {
				if x == p {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("tsf: slot (%d,%d) points at %d, not an in-neighbor", k, v, p)
			}
		}
	}
	return nil
}

// Slots returns the number of stored parent slots (Rg · n), the
// index-memory proxy the benchmark reports use.
func (ix *Index) Slots() int {
	return len(ix.parent) * ix.g.NumNodes()
}

// Graph exposes the index's private graph copy for tests.
func (ix *Index) Graph() *graph.DiGraph { return ix.g }
