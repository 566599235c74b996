package sling

import "crashsim/internal/graph"

// Serialization support for the persistent index store (internal/store).
//
// The index's query-time state is three structures: the per-node
// truncated hitting distributions, the inverted occurrence index, and
// the d(x) corrections. Export flattens the distributions and d values
// into a Payload; the store writes it together with the compiled
// inverted index (Flatten) and loads both back through ImportFlat, so a
// loaded index answers queries bit-identically to the index it was
// exported from: identical dist float64s, identical occurrence-list
// order, identical d values.

// Payload is the flat, serialization-shaped view of an Index: the
// distributions flattened into parallel (step, node, prob) columns with
// per-node counts, plus the d values and the build options. The store
// layer owns the byte encoding; this type only fixes what must be
// persisted.
type Payload struct {
	// Opt is the defaulted build configuration. Workers is a runtime
	// knob with no effect on the built index and is not preserved.
	Opt Options
	// DistCounts[v] is the number of stored entries of node v's
	// distribution; the columns below concatenate the entries in node
	// order, each node's entries in their stored (query-summation)
	// order.
	DistCounts []int32
	Steps      []int32
	Nodes      []graph.NodeID
	Probs      []float64
	// D[v] is the never-meet-again correction d(v).
	D []float64
}

// Export returns the index's persistable state. The returned slices are
// freshly allocated and do not alias the index.
func (ix *Index) Export() Payload {
	n := ix.g.NumNodes()
	total := ix.DistSize()
	p := Payload{
		Opt:        ix.opt,
		DistCounts: make([]int32, n),
		Steps:      make([]int32, 0, total),
		Nodes:      make([]graph.NodeID, 0, total),
		Probs:      make([]float64, 0, total),
		D:          append([]float64(nil), ix.d...),
	}
	p.Opt.Workers = 0
	if f := ix.flat; f != nil {
		for v := 0; v < n; v++ {
			p.DistCounts[v] = f.DistOff[v+1] - f.DistOff[v]
		}
		p.Steps = append(p.Steps, f.Steps...)
		p.Nodes = append(p.Nodes, f.Nodes...)
		p.Probs = append(p.Probs, f.Probs...)
		return p
	}
	for v := 0; v < n; v++ {
		p.DistCounts[v] = int32(len(ix.dist[v]))
		for _, e := range ix.dist[v] {
			p.Steps = append(p.Steps, e.step)
			p.Nodes = append(p.Nodes, e.node)
			p.Probs = append(p.Probs, e.prob)
		}
	}
	return p
}

// Options returns the defaulted build configuration of the index, so a
// consumer holding a preloaded index can verify it matches the
// parameters it was about to build with.
func (ix *Index) Options() Options { return ix.opt }

// WithDefaults returns o with every zero field replaced by its
// documented default — the form Build actually uses and Options
// reports, so two configurations can be compared for build equivalence.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// Graph returns the graph the index was built on (or bound to by
// ImportFlat).
func (ix *Index) Graph() *graph.Graph { return ix.g }
