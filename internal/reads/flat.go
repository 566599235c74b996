package reads

import (
	"fmt"
	"math"
	"slices"

	"crashsim/internal/graph"
)

// Flat is the borrow-shaped view of an index: the stored walks plus
// the inverted occurrence index compiled into sorted per-(sample,
// step) runs, so a query can binary-search co-locations without any
// map. Export compiles it from the mutable form; snapshot format v3
// persists these arrays verbatim, and the store's loader hands them to
// ImportFlat aliasing its buffer (a file mapping or a heap read).
//
// Layout: the k-th stored walk of node v is
// Nodes[WalkOff[k·n+v]:WalkOff[k·n+v+1]]. The inverted index is
// run-addressed by r = k·MaxLen + step-1: the distinct nodes visited
// at that (sample, step) are InvNodes[RunOff[r]:RunOff[r+1]], sorted
// ascending; the origins whose walk visits node InvNodes[j] there are
// InvOrigins[ListOff[j]:ListOff[j+1]] (j a global index), ascending.
//
// Origin order within a list differs from the map path's append order
// only cosmetically: a query counts each origin at most once per
// sample with the same increment, so scores are bit-identical
// regardless of within-list order.
type Flat struct {
	Opt        Options
	WalkOff    []int32 // R·n+1 prefix over walk lengths
	Nodes      []graph.NodeID
	RunOff     []int32 // R·MaxLen+1 row offsets into InvNodes
	InvNodes   []graph.NodeID
	ListOff    []int32 // len(InvNodes)+1 offsets into InvOrigins
	InvOrigins []graph.NodeID
}

// compile lays the mutable index's walks out as the flat columns and
// builds the sorted runs sample by sample, to bound transient memory.
// Origin lists come out ascending whatever updates reordered in inv.
func (ix *Index) compile() Flat {
	o := ix.opt
	n := ix.src.NumNodes()
	f := Flat{WalkOff: make([]int32, o.R*n+1), Nodes: make([]graph.NodeID, 0, ix.Positions())}
	for k := 0; k < o.R; k++ {
		for v := 0; v < n; v++ {
			w := ix.walks[k][v]
			f.WalkOff[k*n+v+1] = f.WalkOff[k*n+v] + int32(len(w))
			f.Nodes = append(f.Nodes, w...)
		}
	}
	f.RunOff = make([]int32, o.R*o.MaxLen+1)
	indexed := len(f.Nodes) - o.R*n // every position except walk origins
	f.ListOff = make([]int32, 1, indexed+1)
	f.InvNodes = make([]graph.NodeID, 0, indexed)
	f.InvOrigins = make([]graph.NodeID, 0, indexed)
	runs := make([]map[graph.NodeID][]graph.NodeID, o.MaxLen)
	for k := 0; k < o.R; k++ {
		for s := range runs {
			runs[s] = make(map[graph.NodeID][]graph.NodeID)
		}
		for v := 0; v < n; v++ {
			w := ix.walks[k][v]
			for step := 1; step < len(w); step++ {
				m := runs[step-1]
				m[w[step]] = append(m[w[step]], graph.NodeID(v))
			}
		}
		for s, m := range runs {
			keys := make([]graph.NodeID, 0, len(m))
			for node := range m {
				keys = append(keys, node)
			}
			slices.Sort(keys)
			for _, node := range keys {
				f.InvNodes = append(f.InvNodes, node)
				f.InvOrigins = append(f.InvOrigins, m[node]...)
				f.ListOff = append(f.ListOff, int32(len(f.InvOrigins)))
			}
			f.RunOff[k*o.MaxLen+s+1] = int32(len(f.InvNodes))
		}
	}
	return f
}

// ImportFlat binds a flat payload to the frozen graph g as a servable
// Index whose arrays are adopted, not copied — for a mapped snapshot
// they alias the read-only mapping. Fresh query-time walks sample
// g's CSR in-lists directly, which are elementwise the in-lists of
// the thawed copy Build samples, so RQ refinement stays bit-identical.
// The first mutation (ApplyEdge/ApplyDelta) or Graph() call
// materializes heap-side maps and a mutable graph; until then the
// index is read-only. Structural shape checks always run; validate
// adds the per-entry semantic checks (the store's VerifyEager policy).
func ImportFlat(g *graph.Graph, f Flat, validate bool) (*Index, error) {
	o := f.Opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("reads: import flat: %w", err)
	}
	n := g.NumNodes()
	if len(f.WalkOff) != o.R*n+1 {
		return nil, fmt.Errorf("reads: import flat: %d walk offsets, want r·n+1 = %d", len(f.WalkOff), o.R*n+1)
	}
	if f.WalkOff[0] != 0 || int(f.WalkOff[o.R*n]) != len(f.Nodes) {
		return nil, fmt.Errorf("reads: import flat: walk offsets span [%d,%d], nodes column has %d",
			f.WalkOff[0], f.WalkOff[o.R*n], len(f.Nodes))
	}
	rows := o.R * o.MaxLen
	if len(f.RunOff) != rows+1 || f.RunOff[0] != 0 || int(f.RunOff[rows]) != len(f.InvNodes) {
		return nil, fmt.Errorf("reads: import flat: run offsets have %d rows spanning %d, want %d spanning %d",
			len(f.RunOff)-1, sliceLast(f.RunOff), rows, len(f.InvNodes))
	}
	if len(f.ListOff) != len(f.InvNodes)+1 || f.ListOff[0] != 0 || int(f.ListOff[len(f.InvNodes)]) != len(f.InvOrigins) {
		return nil, fmt.Errorf("reads: import flat: list offsets have %d entries spanning %d, want %d spanning %d",
			len(f.ListOff)-1, sliceLast(f.ListOff), len(f.InvNodes), len(f.InvOrigins))
	}
	if got, want := len(f.InvOrigins), len(f.Nodes)-o.R*n; got != want {
		return nil, fmt.Errorf("reads: import flat: %d inverted origins for %d indexed positions", got, want)
	}
	for i := 0; i < o.R*n; i++ {
		if f.WalkOff[i] > f.WalkOff[i+1] {
			return nil, fmt.Errorf("reads: import flat: walk offsets not monotone at %d", i)
		}
	}
	for r := 0; r < rows; r++ {
		if f.RunOff[r] > f.RunOff[r+1] {
			return nil, fmt.Errorf("reads: import flat: run offsets not monotone at %d", r)
		}
	}
	for j := range f.InvNodes {
		if f.ListOff[j] > f.ListOff[j+1] {
			return nil, fmt.Errorf("reads: import flat: list offsets not monotone at %d", j)
		}
	}
	if validate {
		for k := 0; k < o.R; k++ {
			for v := 0; v < n; v++ {
				w := f.Nodes[f.WalkOff[k*n+v]:f.WalkOff[k*n+v+1]]
				if len(w) < 1 || len(w) > o.MaxLen+1 {
					return nil, fmt.Errorf("reads: import flat: walk (%d,%d) has length %d outside [1,%d]", k, v, len(w), o.MaxLen+1)
				}
				if w[0] != graph.NodeID(v) {
					return nil, fmt.Errorf("reads: import flat: walk (%d,%d) starts at %d, not its origin", k, v, w[0])
				}
				for _, x := range w {
					if x < 0 || int(x) >= n {
						return nil, fmt.Errorf("reads: import flat: walk (%d,%d) visits out-of-range node %d", k, v, x)
					}
				}
			}
		}
		for r := 0; r < rows; r++ {
			prev := graph.NodeID(-1)
			for _, node := range f.InvNodes[f.RunOff[r]:f.RunOff[r+1]] {
				if node <= prev || int(node) >= n {
					return nil, fmt.Errorf("reads: import flat: run %d inverted nodes not strictly ascending in range at %d", r, node)
				}
				prev = node
			}
		}
		for _, origin := range f.InvOrigins {
			if origin < 0 || int(origin) >= n {
				return nil, fmt.Errorf("reads: import flat: out-of-range inverted origin %d", origin)
			}
		}
	}
	return &Index{opt: o, src: g, flat: &f, sc: math.Sqrt(o.C)}, nil
}

func sliceLast(s []int32) int32 {
	if len(s) == 0 {
		return -1
	}
	return s[len(s)-1]
}

// walkFlat returns the k-th stored walk of v from the flat columns.
func (ix *Index) walkFlat(k int, v graph.NodeID) []graph.NodeID {
	f := ix.flat
	n := ix.src.NumNodes()
	i := k*n + int(v)
	return f.Nodes[f.WalkOff[i]:f.WalkOff[i+1]]
}

// accumulateFlat is accumulate over the flat runs: binary-search each
// visited (step, node) instead of a map lookup. Same met/scores logic,
// same increment — bit-identical scores (within-list order cannot
// matter: each origin adds inc at most once per sample).
func (ix *Index) accumulateFlat(k int, w []graph.NodeID, u graph.NodeID, inc float64,
	met map[graph.NodeID]struct{}, scores map[graph.NodeID]float64) {
	f := ix.flat
	clear(met)
	for step := 1; step < len(w); step++ {
		r := k*ix.opt.MaxLen + step - 1
		lo, hi := f.RunOff[r], f.RunOff[r+1]
		j, ok := slices.BinarySearch(f.InvNodes[lo:hi], w[step])
		if !ok {
			continue
		}
		gi := int(lo) + j
		for _, origin := range f.InvOrigins[f.ListOff[gi]:f.ListOff[gi+1]] {
			if origin == u {
				continue
			}
			if _, seen := met[origin]; seen {
				continue
			}
			met[origin] = struct{}{}
			scores[origin] += inc
		}
	}
}

// materialize promotes a borrowed index to the mutable heap form: a
// private DiGraph, per-sample walk tables (aliasing the flat node
// column — resampled walks replace whole slices, never write in
// place) and the map-based inverted index, rebuilt in the same
// (sample, node) order as BuildCtx. One-time, triggered by the first
// mutation; not safe concurrently with queries (the update path never
// was).
func (ix *Index) materialize() {
	if ix.flat == nil {
		return
	}
	n := ix.src.NumNodes()
	f := ix.flat
	ix.g = ix.src.Thaw()
	ix.walks = make([][][]graph.NodeID, ix.opt.R)
	ix.inv = make([]map[posKey][]graph.NodeID, ix.opt.R)
	for k := 0; k < ix.opt.R; k++ {
		ix.walks[k] = make([][]graph.NodeID, n)
		ix.inv[k] = make(map[posKey][]graph.NodeID, n)
		for v := 0; v < n; v++ {
			i := k*n + v
			ix.walks[k][v] = f.Nodes[f.WalkOff[i]:f.WalkOff[i+1]:f.WalkOff[i+1]]
		}
	}
	for k := 0; k < ix.opt.R; k++ {
		for v := 0; v < n; v++ {
			ix.indexWalk(k, graph.NodeID(v))
		}
	}
	ix.flat = nil
}
