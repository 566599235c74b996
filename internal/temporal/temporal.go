// Package temporal implements the temporal-graph substrate of the paper
// (Definition 2): a temporal graph is a sequence of snapshots
// G_1 .. G_T over a fixed node set, where consecutive snapshots differ by
// edge insertions and deletions.
//
// Snapshots are stored as the initial edge set plus one Delta per
// transition, which is both compact (real temporal graphs change little
// between instants) and exactly the form CrashSim-T's delta pruning
// consumes. A Cursor materializes snapshots in order by applying deltas
// to a mutable graph.
package temporal

import (
	"fmt"

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
	deltas   []Delta // deltas[t] transforms snapshot t into snapshot t+1
}

// New builds a temporal graph from the first snapshot's edges and the
// per-transition deltas. It validates the whole history eagerly: every
// Add must insert a missing edge and every Del must remove a present one.
func New(n int, directed bool, initial []graph.Edge, deltas []Delta) (*Graph, error) {
	tg := &Graph{n: n, directed: directed, initial: initial, deltas: deltas}
	cur, err := tg.Cursor()
	if err != nil {
		return nil, err
	}
	for cur.Next() {
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return tg, nil
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
// replays deltas from the start and costs O(t·Δ + m).
//
// The returned graph's Version is the cursor's working-graph
// Generation after replaying t deltas, so it is deterministic for a
// given t, strictly increases across snapshots separated by non-empty
// deltas, and stays equal across empty deltas (where the edge sets —
// and therefore any cached query results — really are identical).
// Result caches key on this version to avoid serving scores from a
// superseded snapshot.
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

// Cursor returns a cursor positioned at snapshot 0.
func (tg *Graph) Cursor() (*Cursor, error) {
	d := graph.NewDiGraph(tg.n, tg.directed)
	for _, e := range tg.initial {
		if err := d.AddEdge(e.X, e.Y); err != nil {
			return nil, fmt.Errorf("temporal: initial snapshot: %w", err)
		}
	}
	return &Cursor{tg: tg, cur: d}, nil
}

// Cursor iterates snapshots in time order, maintaining a mutable working
// graph. After construction the cursor is at snapshot 0; Next advances to
// the following snapshot, returning false at the end of the history or on
// an inconsistent delta (check Err).
type Cursor struct {
	tg     *Graph
	t      int
	cur    *graph.DiGraph
	err    error
	frozen *graph.Graph // last Freeze result; current while its Version is cur's Generation
}

// T returns the current snapshot index.
func (c *Cursor) T() int { return c.t }

// Err returns the first delta-application error encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Working returns the cursor's mutable working graph for the current
// snapshot. Callers must not modify it; it is invalidated by Next.
func (c *Cursor) Working() *graph.DiGraph { return c.cur }

// Freeze returns an immutable CSR view of the current snapshot,
// stamped with the working graph's Generation as its Version (see
// Graph.Snapshot for the monotonicity guarantees caches rely on).
// While the Generation has not moved — across repeated calls and
// across empty deltas — it returns the graph it already froze: the
// edge set is the same, the graph is immutable, and the Version is
// equal, so a quiet snapshot costs no CSR build.
func (c *Cursor) Freeze() *graph.Graph {
	if c.frozen == nil || c.frozen.Version() != c.cur.Generation() {
		c.frozen = c.cur.Freeze()
	}
	return c.frozen
}

// Next advances to the next snapshot.
func (c *Cursor) Next() bool {
	if c.err != nil || c.t >= len(c.tg.deltas) {
		return false
	}
	d := c.tg.deltas[c.t]
	for _, e := range d.Del {
		if err := c.cur.RemoveEdge(e.X, e.Y); err != nil {
			c.err = fmt.Errorf("temporal: delta %d: %w", c.t, err)
			return false
		}
	}
	for _, e := range d.Add {
		if err := c.cur.AddEdge(e.X, e.Y); err != nil {
			c.err = fmt.Errorf("temporal: delta %d: %w", c.t, err)
			return false
		}
	}
	c.t++
	return true
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
