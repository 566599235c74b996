// Package temporal implements the temporal-graph substrate of the paper
// (Definition 2): a temporal graph is a sequence of snapshots
// G_1 .. G_T over a fixed node set, where consecutive snapshots differ by
// edge insertions and deletions.
//
// Snapshots are stored as the initial edge set plus one Delta per
// transition, which is both compact (real temporal graphs change little
// between instants) and exactly the form CrashSim-T's delta pruning
// consumes. Every snapshot is an immutable CSR graph: a Cursor merges
// the edge changes into the last snapshot it built (graph.Graph.Merge).
package temporal

import (
	"fmt"
	"slices"

	"crashsim/internal/graph"
)

// Delta is the edge difference between snapshot t and snapshot t+1.
type Delta struct {
	Add []graph.Edge
	Del []graph.Edge
}

// Size returns the number of changed edges |E(Δ)|.
func (d Delta) Size() int { return len(d.Add) + len(d.Del) }

// Graph is a temporal graph: the initial snapshot plus T-1 deltas.
type Graph struct {
	n        int
	directed bool
	initial  []graph.Edge
	deltas   []Delta      // deltas[t] transforms snapshot t into snapshot t+1
	first    *graph.Graph // snapshot 0
}

// New builds a temporal graph from the first snapshot's edges and the
// per-transition deltas. It validates the whole history eagerly: the
// initial edges must be in range, loop-free and distinct, every Add must
// insert a missing edge and every Del must remove a present one.
func New(n int, directed bool, initial []graph.Edge, deltas []Delta) (*Graph, error) {
	tg := &Graph{n: n, directed: directed, initial: initial, deltas: deltas}
	var err error
	if tg.first, err = tg.firstSnapshot(); err != nil {
		return nil, err
	}
	// A cursor checks every delta without building another snapshot.
	c, _ := tg.Cursor()
	for c.Next() {
	}
	if c.err != nil {
		return nil, c.err
	}
	return tg, nil
}

// firstSnapshot builds snapshot 0. Valid initial edges cost one CSR
// build and a scan for a repeated edge; otherwise a cursor over the
// empty graph inserts them as a delta would, to name the first it
// refuses.
func (tg *Graph) firstSnapshot() (*graph.Graph, error) {
	empty := graph.NewBuilder(tg.n, tg.directed).MustFreeze()
	if !slices.ContainsFunc(tg.initial, func(e graph.Edge) bool { return graph.CheckEdge(tg.n, e.X, e.Y) != nil }) {
		g := empty.Merge(tg.initial, nil, uint64(len(tg.initial)))
		if !g.HasRepeats() {
			return g, nil
		}
	}
	c := &Cursor{tg: tg, g: empty, pending: map[graph.Edge]bool{}}
	return nil, fmt.Errorf("temporal: initial snapshot: %w", c.apply(Delta{Add: tg.initial}))
}

// NumNodes returns the node count (fixed across snapshots).
func (tg *Graph) NumNodes() int { return tg.n }

// Directed reports whether snapshots are directed graphs.
func (tg *Graph) Directed() bool { return tg.directed }

// NumSnapshots returns T, the number of time instants.
func (tg *Graph) NumSnapshots() int { return len(tg.deltas) + 1 }

// Delta returns the delta transforming snapshot t into t+1,
// for t in [0, T-1).
func (tg *Graph) Delta(t int) Delta { return tg.deltas[t] }

// Snapshot materializes snapshot t as an immutable CSR graph. For
// sequential access over many snapshots, use a Cursor instead: Snapshot
// merges the net change of the first t deltas into snapshot 0, which
// costs O(n + m) plus the deltas' size.
//
// The returned graph's Version is the initial edge count plus the sizes
// of the first t deltas. So it is deterministic for a given t, strictly
// increases across snapshots separated by non-empty deltas, and stays
// equal across empty deltas (where the edge sets — and therefore any
// cached query results — really are identical). Result caches key on
// this version to avoid serving scores from a superseded snapshot.
func (tg *Graph) Snapshot(t int) (*graph.Graph, error) {
	if t < 0 || t >= tg.NumSnapshots() {
		return nil, fmt.Errorf("temporal: snapshot %d out of range [0,%d)", t, tg.NumSnapshots())
	}
	cur, err := tg.Cursor()
	if err != nil {
		return nil, err
	}
	for cur.T() < t {
		if !cur.Next() {
			return nil, cur.Err()
		}
	}
	return cur.Freeze(), nil
}

// Cursor returns a cursor positioned at snapshot 0. The history was
// validated by New, so the error is always nil.
func (tg *Graph) Cursor() (*Cursor, error) {
	return &Cursor{tg: tg, g: tg.first, version: tg.first.Version(), pending: map[graph.Edge]bool{}}, nil
}

// Cursor iterates snapshots in time order, holding the last snapshot it
// built and the edge changes since. After construction the cursor is at
// snapshot 0; Next advances to the following snapshot, returning false
// at the end of the history or on an inconsistent delta (check Err).
type Cursor struct {
	tg      *Graph
	t       int
	g       *graph.Graph // last snapshot built
	version uint64       // the current snapshot's version
	// pending maps each edge (undirected: X <= Y) whose presence differs
	// between g and the current snapshot to its current presence.
	pending map[graph.Edge]bool
	err     error
}

// T returns the current snapshot index.
func (c *Cursor) T() int { return c.t }

// Err returns the first delta-application error encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Freeze returns the current snapshot as an immutable CSR graph (see
// Graph.Snapshot for its Version). While the version stands still —
// across repeated calls and empty deltas — it returns the graph it
// already built, so a quiet snapshot costs no build; otherwise it
// merges the pending changes into that graph once.
func (c *Cursor) Freeze() *graph.Graph {
	if c.g.Version() == c.version {
		return c.g
	}
	var add, del []graph.Edge
	for e, present := range c.pending {
		if present {
			add = append(add, e)
		} else {
			del = append(del, e)
		}
	}
	clear(c.pending)
	c.g = c.g.Merge(add, del, c.version)
	return c.g
}

// Next advances to the next snapshot.
func (c *Cursor) Next() bool {
	if c.err != nil || c.t >= len(c.tg.deltas) {
		return false
	}
	d := c.tg.deltas[c.t]
	if err := c.apply(d); err != nil {
		c.err = fmt.Errorf("temporal: delta %d: %w", c.t, err)
		return false
	}
	c.version += uint64(d.Size())
	c.t++
	return true
}

// apply records d's deletions, then its insertions, as pending changes,
// failing at the first one the current edge set refuses.
func (c *Cursor) apply(d Delta) error {
	for i, es := range [2][]graph.Edge{d.Del, d.Add} {
		for _, e := range es {
			if err := c.change(e, i == 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// change sets edge e's presence in the current snapshot to present,
// which must differ from its presence now.
func (c *Cursor) change(e graph.Edge, present bool) error {
	if err := graph.CheckEdge(c.tg.n, e.X, e.Y); err != nil {
		return err
	}
	k := e
	if !c.tg.directed && k.X > k.Y {
		k.X, k.Y = k.Y, k.X
	}
	now, changed := c.pending[k]
	if !changed {
		now = c.g.HasEdge(k.X, k.Y)
	}
	switch {
	case now == present && present:
		return fmt.Errorf("graph: edge (%d,%d) already present", e.X, e.Y)
	case now == present:
		return fmt.Errorf("graph: edge (%d,%d) not present", e.X, e.Y)
	case changed:
		delete(c.pending, k) // back to g's state
	default:
		c.pending[k] = present
	}
	return nil
}

// Slice returns a temporal graph restricted to snapshots [from, to)
// of tg. It is used to vary the query-interval length in Fig 7.
func (tg *Graph) Slice(from, to int) (*Graph, error) {
	if from < 0 || to > tg.NumSnapshots() || from >= to {
		return nil, fmt.Errorf("temporal: bad slice [%d,%d) of %d snapshots", from, to, tg.NumSnapshots())
	}
	first, err := tg.Snapshot(from)
	if err != nil {
		return nil, err
	}
	return New(tg.n, tg.directed, first.Edges(), tg.deltas[from:to-1])
}

// FromSnapshots builds a temporal graph from fully materialized snapshot
// edge sets, computing the deltas. This is how the generators and the
// temporal edge-list reader construct histories.
func FromSnapshots(n int, directed bool, snaps [][]graph.Edge) (*Graph, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("temporal: need at least one snapshot")
	}
	deltas := make([]Delta, 0, len(snaps)-1)
	for t := 0; t+1 < len(snaps); t++ {
		deltas = append(deltas, DiffEdges(directed, snaps[t], snaps[t+1]))
	}
	return New(n, directed, snaps[0], deltas)
}

// DiffEdges computes the delta turning edge set a into edge set b.
// For undirected graphs, edges are canonicalized with X <= Y first.
func DiffEdges(directed bool, a, b []graph.Edge) Delta {
	canon := func(e graph.Edge) graph.Edge {
		if !directed && e.X > e.Y {
			e.X, e.Y = e.Y, e.X
		}
		return e
	}
	inA := make(map[graph.Edge]struct{}, len(a))
	for _, e := range a {
		inA[canon(e)] = struct{}{}
	}
	var d Delta
	inB := make(map[graph.Edge]struct{}, len(b))
	for _, e := range b {
		ce := canon(e)
		inB[ce] = struct{}{}
		if _, ok := inA[ce]; !ok {
			d.Add = append(d.Add, ce)
		}
	}
	for _, e := range a {
		ce := canon(e)
		if _, ok := inB[ce]; !ok {
			d.Del = append(d.Del, ce)
		}
	}
	return d
}
