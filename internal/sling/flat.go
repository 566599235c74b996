package sling

import (
	"fmt"
	"math"

	"crashsim/internal/graph"
)

// Flat is the form an index serves from: the per-node distributions
// as parallel (step, node, prob) columns plus the inverted occurrence
// index compiled into a dense per-(step, node) CSR, so a query runs
// without any map. Build compiles it; snapshot format v3 persists
// these arrays verbatim, and the store's loader hands them to
// ImportFlat aliasing its buffer (a file mapping or a heap read),
// which is why a mapped index serves its first query without touching
// most of the file.
//
// Layout: node v's distribution entries live at columns
// [DistOff[v], DistOff[v+1]), in the order distribution emits them
// (ascending step, then node). The inverted index is row-addressed
// by r = (step-1)·n + node: the
// origins whose step-`step` distributions contain `node` are
// InvOrigins[InvOff[r]:InvOff[r+1]] with matching InvProbs, listed in
// ascending origin order — the order a query sums in, so every index
// with the same arrays scores bit-identically.
type Flat struct {
	Opt        Options
	DistOff    []int32 // n+1 prefix over per-node entry counts
	Steps      []int32
	Nodes      []graph.NodeID
	Probs      []float64
	D          []float64 // D[v] is the never-meet-again correction d(v)
	InvOff     []int32   // Lmax·n+1 row offsets
	InvOrigins []graph.NodeID
	InvProbs   []float64
}

// compile lays the per-node distributions out as columns and inverts
// them into the CSR with two counting passes, no maps —
// O(n·Lmax + entries).
func compile(o Options, dist [][]entry, d []float64) Flat {
	n := len(dist)
	f := Flat{Opt: o, DistOff: make([]int32, n+1), D: d}
	for v, es := range dist {
		f.DistOff[v+1] = f.DistOff[v] + int32(len(es))
	}
	total := int(f.DistOff[n])
	f.Steps = make([]int32, total)
	f.Nodes = make([]graph.NodeID, total)
	f.Probs = make([]float64, total)
	rows := o.Lmax * n
	f.InvOff = make([]int32, rows+1)
	for v, es := range dist {
		for j, e := range es {
			i := int(f.DistOff[v]) + j
			f.Steps[i], f.Nodes[i], f.Probs[i] = e.step, e.node, e.prob
			f.InvOff[(int(e.step)-1)*n+int(e.node)+1]++
		}
	}
	for r := 0; r < rows; r++ {
		f.InvOff[r+1] += f.InvOff[r]
	}
	f.InvOrigins = make([]graph.NodeID, total)
	f.InvProbs = make([]float64, total)
	next := make([]int32, rows)
	// Visiting origins in ascending order fills every row in ascending
	// origin order.
	for v := 0; v < n; v++ {
		for i := f.DistOff[v]; i < f.DistOff[v+1]; i++ {
			r := (int(f.Steps[i])-1)*n + int(f.Nodes[i])
			at := f.InvOff[r] + next[r]
			next[r]++
			f.InvOrigins[at] = graph.NodeID(v)
			f.InvProbs[at] = f.Probs[i]
		}
	}
	return f
}

// ImportFlat binds a flat payload to g as a servable Index whose
// arrays are adopted, not copied — for a mapped snapshot they alias
// the read-only mapping. Structural shape checks (lengths, offset
// monotonicity) always run; with validate set the per-entry semantic
// checks (step, node and probability ranges) run too (the store's
// VerifyEager policy).
// Without it the caller is vouching for the bytes — in practice via
// the snapshot section's CRC.
func ImportFlat(g *graph.Graph, f Flat, validate bool) (*Index, error) {
	o := f.Opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("sling: import flat: %w", err)
	}
	n := g.NumNodes()
	if len(f.DistOff) != n+1 || len(f.D) != n {
		return nil, fmt.Errorf("sling: import flat: payload sized for %d nodes, graph has %d", len(f.DistOff)-1, n)
	}
	if f.DistOff[0] != 0 {
		return nil, fmt.Errorf("sling: import flat: distribution offsets start at %d", f.DistOff[0])
	}
	for v := 0; v < n; v++ {
		if f.DistOff[v] > f.DistOff[v+1] {
			return nil, fmt.Errorf("sling: import flat: distribution offsets not monotone at node %d", v)
		}
	}
	total := int(f.DistOff[n])
	if len(f.Steps) != total || len(f.Nodes) != total || len(f.Probs) != total {
		return nil, fmt.Errorf("sling: import flat: entry columns have %d/%d/%d values, offsets span %d",
			len(f.Steps), len(f.Nodes), len(f.Probs), total)
	}
	rows := o.Lmax * n
	if len(f.InvOff) != rows+1 || f.InvOff[0] != 0 || int(f.InvOff[rows]) != total {
		return nil, fmt.Errorf("sling: import flat: inverted offsets have %d rows spanning %d entries, want %d spanning %d",
			len(f.InvOff)-1, sliceLast(f.InvOff), rows, total)
	}
	for r := 0; r < rows; r++ {
		if f.InvOff[r] > f.InvOff[r+1] {
			return nil, fmt.Errorf("sling: import flat: inverted offsets not monotone at row %d", r)
		}
	}
	if len(f.InvOrigins) != total || len(f.InvProbs) != total {
		return nil, fmt.Errorf("sling: import flat: inverted columns have %d/%d values, want %d",
			len(f.InvOrigins), len(f.InvProbs), total)
	}
	if validate {
		for i := 0; i < total; i++ {
			if s := f.Steps[i]; s < 1 || int(s) > o.Lmax {
				return nil, fmt.Errorf("sling: import flat: entry %d has step %d outside [1,%d]", i, s, o.Lmax)
			}
			if v := f.Nodes[i]; v < 0 || int(v) >= n {
				return nil, fmt.Errorf("sling: import flat: entry %d references out-of-range node %d", i, v)
			}
			if p := f.Probs[i]; p <= 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf("sling: import flat: entry %d has probability %v outside (0,1]", i, p)
			}
			if v := f.InvOrigins[i]; v < 0 || int(v) >= n {
				return nil, fmt.Errorf("sling: import flat: inverted entry %d references out-of-range origin %d", i, v)
			}
			if p := f.InvProbs[i]; p <= 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf("sling: import flat: inverted entry %d has probability %v outside (0,1]", i, p)
			}
		}
		for x, d := range f.D {
			if d < 0 || d > 1 || math.IsNaN(d) {
				return nil, fmt.Errorf("sling: import flat: d(%d) = %v outside [0,1]", x, d)
			}
		}
	}
	f.Opt = o
	return &Index{g: g, f: f}, nil
}

func sliceLast(s []int32) int32 {
	if len(s) == 0 {
		return -1
	}
	return s[len(s)-1]
}
