package reads

// Serialization support for the persistent index store (internal/store).
//
// The index's persistable state is the r stored walks per node plus the
// build options. The store writes them together with the compiled
// inverted index as the arrays of a Flat and loads them back through
// ImportFlat, so a loaded index answers queries bit-identically to the
// index it was exported from without rebuilding anything.

// Export returns the index's persistable state in the flat form. A
// borrowed index returns its own arrays, which alias the snapshot
// buffer; a mutable index compiles fresh ones. Either way the arrays
// must not be modified. Workers is a runtime knob with no effect on
// the built index and is zeroed.
func (ix *Index) Export() Flat {
	var f Flat
	if ix.flat != nil {
		f = *ix.flat
	} else {
		f = ix.compile()
	}
	f.Opt = ix.opt
	f.Opt.Workers = 0
	return f
}

// Options returns the defaulted build configuration of the index, so a
// consumer holding a preloaded index can verify it matches the
// parameters it was about to build with.
func (ix *Index) Options() Options { return ix.opt }

// WithDefaults returns o with every zero field replaced by its
// documented default — the form Build actually uses and Options
// reports, so two configurations can be compared for build equivalence.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// SourceVersion is the Version() of the graph the index was built on or
// imported against. Consumers attaching a preloaded index to a graph
// use it to refuse a graph the index was not built on.
func (ix *Index) SourceVersion() uint64 { return ix.src.Version() }
