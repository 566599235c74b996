package sling

import "crashsim/internal/graph"

// Serialization support for the persistent index store (internal/store).
//
// The index's query-time state is its Flat: the per-node truncated
// hitting distributions, the inverted occurrence index and the d(x)
// corrections. The store writes the arrays Export returns and loads
// them back through ImportFlat, so a loaded index answers queries
// bit-identically to the index it was exported from: identical dist
// float64s, identical occurrence-list order, identical d values.

// Export returns the index's persistable state: the arrays it serves
// from, with the defaulted build options. Workers is a runtime knob
// with no effect on the built index and is zeroed. The arrays alias
// the index (and, for an imported index, its snapshot buffer) and
// must not be modified.
func (ix *Index) Export() Flat {
	f := ix.f
	f.Opt.Workers = 0
	return f
}

// Options returns the defaulted build configuration of the index, so a
// consumer holding a preloaded index can verify it matches the
// parameters it was about to build with.
func (ix *Index) Options() Options { return ix.f.Opt }

// WithDefaults returns o with every zero field replaced by its
// documented default — the form Build actually uses and Options
// reports, so two configurations can be compared for build equivalence.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// Graph returns the graph the index was built on (or bound to by
// ImportFlat).
func (ix *Index) Graph() *graph.Graph { return ix.g }
