package graph

import (
	"fmt"
	"slices"
)

// DiGraph is a mutable graph with O(deg) edge insertion and removal: the
// private, updatable copy of a graph that the READS and TSF indexes keep
// and apply edge updates to (Graph.Thaw makes one). It stores in-lists
// only, because their walks and resamplings read nothing else, and keeps
// each one ascending like a CSR row: a copy updated edge by edge then
// equals the thaw of the updated edge set's CSR, so an index maintained
// incrementally samples the same lists as one rebuilt from scratch.
//
// The "Di" prefix refers to the internal arc storage: undirected graphs
// are supported and store both arcs per edge, mirroring Graph.
type DiGraph struct {
	directed bool
	in       [][]NodeID
}

// NumNodes returns the number of nodes.
func (d *DiGraph) NumNodes() int { return len(d.in) }

// Directed reports whether the graph is directed.
func (d *DiGraph) Directed() bool { return d.directed }

// In returns the ascending in-neighbor list of v; the slice is shared
// and must not be modified by the caller.
func (d *DiGraph) In(v NodeID) []NodeID { return d.in[v] }

// HasEdge reports whether arc x->y (undirected: edge {x,y}) exists.
func (d *DiGraph) HasEdge(x, y NodeID) bool {
	_, found := slices.BinarySearch(d.in[y], x)
	return found
}

// AddEdge inserts the edge x -> y (both arcs for undirected graphs). It
// returns an error if the edge already exists, is a self-loop, or is out
// of range, so updates that double-apply are caught early.
func (d *DiGraph) AddEdge(x, y NodeID) error {
	if err := CheckEdge(len(d.in), x, y); err != nil {
		return err
	}
	if d.HasEdge(x, y) {
		return fmt.Errorf("graph: edge (%d,%d) already present", x, y)
	}
	d.in[y] = insertSorted(d.in[y], x)
	if !d.directed {
		d.in[x] = insertSorted(d.in[x], y)
	}
	return nil
}

// RemoveEdge deletes the edge x -> y (both arcs for undirected graphs).
// It returns an error if the edge is absent.
func (d *DiGraph) RemoveEdge(x, y NodeID) error {
	if err := CheckEdge(len(d.in), x, y); err != nil {
		return err
	}
	if !d.HasEdge(x, y) {
		return fmt.Errorf("graph: edge (%d,%d) not present", x, y)
	}
	d.in[y] = removeSorted(d.in[y], x)
	if !d.directed {
		d.in[x] = removeSorted(d.in[x], y)
	}
	return nil
}

// CheckEdge rejects an edge with an endpoint outside [0, n) or a
// self-loop, with the messages every edge-set update reports.
func CheckEdge(n int, x, y NodeID) error {
	if x < 0 || int(x) >= n || y < 0 || int(y) >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", x, y, n)
	}
	if x == y {
		return fmt.Errorf("graph: self-loop at node %d not allowed", x)
	}
	return nil
}

// Thaw returns a mutable copy of g. Each In list is g's ascending CSR
// in-row, which READS samples by position, so a walk drawn on the copy
// matches one drawn on g. The rows share one copied backing array, each
// capped at its own length, so an insertion reallocates instead of
// overwriting the next row.
func (g *Graph) Thaw() *DiGraph {
	d := &DiGraph{directed: g.directed, in: make([][]NodeID, g.n)}
	inAdj := append([]NodeID(nil), g.inAdj...)
	for v := 0; v < g.n; v++ {
		if lo, hi := g.inOff[v], g.inOff[v+1]; lo < hi {
			d.in[v] = inAdj[lo:hi:hi]
		}
	}
	return d
}

func insertSorted(s []NodeID, v NodeID) []NodeID {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

func removeSorted(s []NodeID, v NodeID) []NodeID {
	i, _ := slices.BinarySearch(s, v)
	return slices.Delete(s, i, i+1)
}
