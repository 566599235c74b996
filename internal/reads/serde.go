package reads

import "crashsim/internal/graph"

// Serialization support for the persistent index store (internal/store).
//
// The index's persistable state is the r stored walks per node plus the
// build options. The store writes them together with the compiled
// inverted index (Flatten) and loads them back through ImportFlat, so a
// loaded index answers queries bit-identically to the index it was
// exported from without rebuilding anything.

// Payload is the flat, serialization-shaped view of an Index: walk
// lengths in (sample, origin) order and the concatenated walk nodes,
// plus the build options.
type Payload struct {
	// Opt is the defaulted build configuration. Workers is a runtime
	// knob with no effect on the built index and is not preserved.
	Opt Options
	// WalkLens holds R·n lengths: WalkLens[k·n+v] is the length
	// (including the origin) of the k-th stored walk of node v.
	WalkLens []int32
	// Nodes concatenates every walk's positions in the same order.
	Nodes []graph.NodeID
}

// Export returns the index's persistable state. The returned slices are
// freshly allocated and do not alias the index.
func (ix *Index) Export() Payload {
	n := ix.numNodes()
	p := Payload{
		Opt:      ix.opt,
		WalkLens: make([]int32, 0, ix.opt.R*n),
		Nodes:    make([]graph.NodeID, 0, ix.Positions()),
	}
	p.Opt.Workers = 0
	for k := 0; k < ix.opt.R; k++ {
		for v := 0; v < n; v++ {
			w := ix.walk(k, graph.NodeID(v))
			p.WalkLens = append(p.WalkLens, int32(len(w)))
			p.Nodes = append(p.Nodes, w...)
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

// SourceVersion is the Version() of the frozen graph an imported index
// was bound to, or 0 for an index built directly on a DiGraph (which
// has no frozen identity). Consumers attaching a preloaded index to a
// frozen graph use it to refuse a graph the index was not built on.
func (ix *Index) SourceVersion() uint64 { return ix.srcVersion }

// BindSourceVersion records the frozen graph version ix derives from,
// for builders that construct the walk DiGraph from a frozen graph
// themselves (ImportFlat does this automatically).
func (ix *Index) BindSourceVersion(v uint64) { ix.srcVersion = v }
