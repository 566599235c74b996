package prsim

import (
	"fmt"

	"crashsim/internal/graph"
)

// Flat is the form a PRSim index persists and serves from: every table
// published so far — the eager hub tables plus whatever tail tables
// earlier queries have cached — and each table's d value. Export
// returns it; snapshot format v3 stores these arrays verbatim, and the
// store's loader hands them to ImportFlat aliasing its buffer.
//
// The hub set itself is not stored: it is a deterministic function of
// (graph, HubFraction), and ImportFlat recomputes it with the same
// constructor Build uses, so a loaded index attributes hub hits exactly
// as the exported one did. Because every table is a pure function of
// (g, opt, w), a loaded index answers every query bit-identically to
// the index it was exported from, and any table missing from the flat
// is built lazily on first visit.
//
// Layout: TableLevels[v] is the number of stored levels of node v's
// table, or -1 if v's table was never built. LevelCounts concatenates
// the per-level entry counts of built tables in node order; Origins and
// Probs concatenate the level entries in the same order, each level
// sorted by origin ascending. D holds one d(w) per built table, in node
// order.
type Flat struct {
	// Opt is the defaulted build configuration. Workers is a runtime
	// knob with no effect on the built index and is zeroed.
	Opt         Options
	TableLevels []int32
	LevelCounts []int32
	Origins     []graph.NodeID
	Probs       []float64
	D           []float64
}

// Export returns the index's persistable state: every table published
// so far (eager hubs and lazily cached tails alike). The returned
// slices are freshly allocated and do not alias the index; concurrent
// queries may keep publishing tables during the export — each table is
// snapshotted atomically, so the flat is a consistent prefix.
func (ix *Index) Export() Flat {
	n := ix.g.NumNodes()
	f := Flat{
		Opt:         ix.opt,
		TableLevels: make([]int32, n),
	}
	f.Opt.Workers = 0
	for v := 0; v < n; v++ {
		t := ix.tables[v].Load()
		if t == nil {
			f.TableLevels[v] = -1
			continue
		}
		f.TableLevels[v] = int32(t.levels())
		for l := 0; l < t.levels(); l++ {
			f.LevelCounts = append(f.LevelCounts, t.off[l+1]-t.off[l])
		}
		f.Origins = append(f.Origins, t.origins...)
		f.Probs = append(f.Probs, t.probs...)
		f.D = append(f.D, t.d)
	}
	return f
}

// ImportFlat binds a flat to g as a servable Index. The published
// tables alias the flat's Origins/Probs columns, which are already the
// serving layout; for a mapped snapshot they alias the read-only
// mapping. Lazily built tail tables are published heap-side next to
// them, so the tail cache keeps growing over a read-only flat.
// Structural shape checks (level counts, column lengths) always run;
// with validate set the per-entry semantic checks (origin order and
// range, probability and d ranges) run too (the store's VerifyEager
// policy). Without it the caller is vouching for the bytes — in
// practice via the snapshot section's CRC — and the import touches
// none of the entry pages. g must be the graph the index was built on;
// the store layer enforces that identity by graph version.
func ImportFlat(g *graph.Graph, f Flat, validate bool) (*Index, error) {
	ix, _, err := newIndex(g, f.Opt)
	if err != nil {
		return nil, fmt.Errorf("prsim: import flat: %w", err)
	}
	o := ix.opt
	n := g.NumNodes()
	if len(f.TableLevels) != n {
		return nil, fmt.Errorf("prsim: import flat: sized for %d nodes, graph has %d", len(f.TableLevels), n)
	}
	built, levelTotal := 0, 0
	for v, lv := range f.TableLevels {
		switch {
		case lv == -1:
			continue
		case lv < 0 || int(lv) > o.MaxDepth:
			return nil, fmt.Errorf("prsim: import flat: node %d has %d levels outside [-1,%d]", v, lv, o.MaxDepth)
		}
		built++
		levelTotal += int(lv)
	}
	if len(f.LevelCounts) != levelTotal {
		return nil, fmt.Errorf("prsim: import flat: %d level counts, tables declare %d levels", len(f.LevelCounts), levelTotal)
	}
	if len(f.D) != built {
		return nil, fmt.Errorf("prsim: import flat: %d d values for %d built tables", len(f.D), built)
	}
	entryTotal := 0
	for i, c := range f.LevelCounts {
		if c < 1 {
			return nil, fmt.Errorf("prsim: import flat: level %d has non-positive entry count %d", i, c)
		}
		entryTotal += int(c)
	}
	if len(f.Origins) != entryTotal || len(f.Probs) != entryTotal {
		return nil, fmt.Errorf("prsim: import flat: entry columns have %d/%d values, level counts sum to %d",
			len(f.Origins), len(f.Probs), entryTotal)
	}

	level, entry, di := 0, 0, 0
	for v := 0; v < n; v++ {
		lv := int(f.TableLevels[v])
		if lv == -1 {
			continue
		}
		t := &table{off: make([]int32, 1, lv+1)}
		count := 0
		for l := 0; l < lv; l++ {
			count += int(f.LevelCounts[level])
			level++
			t.off = append(t.off, int32(count))
		}
		t.origins = f.Origins[entry : entry+count : entry+count]
		t.probs = f.Probs[entry : entry+count : entry+count]
		entry += count
		if validate {
			for l := 0; l < lv; l++ {
				prev := graph.NodeID(-1)
				for i := t.off[l]; i < t.off[l+1]; i++ {
					org, prob := t.origins[i], t.probs[i]
					if org < 0 || int(org) >= n {
						return nil, fmt.Errorf("prsim: import flat: node %d level %d references out-of-range origin %d", v, l+1, org)
					}
					if org <= prev {
						return nil, fmt.Errorf("prsim: import flat: node %d level %d origins not strictly ascending at %d", v, l+1, org)
					}
					prev = org
					if !(prob > 0 && prob < 1) {
						return nil, fmt.Errorf("prsim: import flat: node %d level %d origin %d has probability %v outside (0,1)", v, l+1, org, prob)
					}
				}
			}
		}
		t.d = f.D[di]
		di++
		if validate && !(t.d >= 0 && t.d <= 1) {
			return nil, fmt.Errorf("prsim: import flat: d(%d) = %v outside [0,1]", v, t.d)
		}
		ix.publish(graph.NodeID(v), t)
	}
	return ix, nil
}
