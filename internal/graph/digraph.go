package graph

import "fmt"

// DiGraph is a mutable graph with O(deg) edge insertion and removal. It is
// the working representation for temporal snapshots: a cursor applies edge
// deltas to a DiGraph and freezes a CSR view when an algorithm needs one.
//
// The "Di" prefix refers to the internal arc storage: undirected graphs
// are supported and store both arcs per edge, mirroring Graph.
type DiGraph struct {
	directed bool
	in       [][]NodeID
	out      [][]NodeID
	arcs     int
	gen      uint64 // bumped once per successful edge mutation
}

// NewDiGraph returns an empty mutable graph with n nodes.
func NewDiGraph(n int, directed bool) *DiGraph {
	return &DiGraph{
		directed: directed,
		in:       make([][]NodeID, n),
		out:      make([][]NodeID, n),
	}
}

// NumNodes returns the number of nodes.
func (d *DiGraph) NumNodes() int { return len(d.in) }

// NumEdges returns the number of directed arcs (directed) or undirected
// edges (undirected).
func (d *DiGraph) NumEdges() int {
	if d.directed {
		return d.arcs
	}
	return d.arcs / 2
}

// Directed reports whether the graph is directed.
func (d *DiGraph) Directed() bool { return d.directed }

// Generation is a monotonically increasing edge-mutation counter: it
// bumps once per successful AddEdge or RemoveEdge. Freeze stamps it
// onto the immutable snapshot as Graph.Version, so downstream caches
// can tell whether two snapshots of the same evolving graph share an
// edge set. Generation never decreases — removing an edge changes the
// graph, so it must change the version too.
func (d *DiGraph) Generation() uint64 { return d.gen }

// In returns the in-neighbor list of v; the slice is shared and must not
// be modified by the caller. Order is unspecified.
func (d *DiGraph) In(v NodeID) []NodeID { return d.in[v] }

// Out returns the out-neighbor list of v; same sharing caveat as In.
func (d *DiGraph) Out(v NodeID) []NodeID { return d.out[v] }

// InDegree returns |I(v)|.
func (d *DiGraph) InDegree(v NodeID) int { return len(d.in[v]) }

// OutDegree returns the out-degree of v.
func (d *DiGraph) OutDegree(v NodeID) int { return len(d.out[v]) }

// HasEdge reports whether arc x->y (undirected: edge {x,y}) exists.
func (d *DiGraph) HasEdge(x, y NodeID) bool {
	return contains(d.out[x], y)
}

// AddEdge inserts the edge x -> y (both arcs for undirected graphs). It
// returns an error if the edge already exists, is a self-loop, or is out
// of range, so temporal deltas that double-apply are caught early.
func (d *DiGraph) AddEdge(x, y NodeID) error {
	if err := d.check(x, y); err != nil {
		return err
	}
	if d.HasEdge(x, y) {
		return fmt.Errorf("graph: edge (%d,%d) already present", x, y)
	}
	d.addArc(x, y)
	if !d.directed {
		d.addArc(y, x)
	}
	d.gen++
	return nil
}

// RemoveEdge deletes the edge x -> y (both arcs for undirected graphs).
// It returns an error if the edge is absent.
func (d *DiGraph) RemoveEdge(x, y NodeID) error {
	if err := d.check(x, y); err != nil {
		return err
	}
	if !d.HasEdge(x, y) {
		return fmt.Errorf("graph: edge (%d,%d) not present", x, y)
	}
	d.removeArc(x, y)
	if !d.directed {
		d.removeArc(y, x)
	}
	d.gen++
	return nil
}

func (d *DiGraph) check(x, y NodeID) error {
	n := NodeID(len(d.in))
	if x < 0 || x >= n || y < 0 || y >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", x, y, n)
	}
	if x == y {
		return fmt.Errorf("graph: self-loop at node %d not allowed", x)
	}
	return nil
}

func (d *DiGraph) addArc(x, y NodeID) {
	d.out[x] = append(d.out[x], y)
	d.in[y] = append(d.in[y], x)
	d.arcs++
}

func (d *DiGraph) removeArc(x, y NodeID) {
	d.out[x] = swapRemove(d.out[x], y)
	d.in[y] = swapRemove(d.in[y], x)
	d.arcs--
}

// Clone returns a deep copy, used when an algorithm needs to keep the
// previous snapshot while the cursor advances.
func (d *DiGraph) Clone() *DiGraph {
	c := &DiGraph{
		directed: d.directed,
		in:       make([][]NodeID, len(d.in)),
		out:      make([][]NodeID, len(d.out)),
		arcs:     d.arcs,
		gen:      d.gen,
	}
	for v := range d.in {
		c.in[v] = append([]NodeID(nil), d.in[v]...)
		c.out[v] = append([]NodeID(nil), d.out[v]...)
	}
	return c
}

// Thaw returns a mutable copy of g, the inverse of Freeze. Each In/Out
// list is g's ascending CSR row, which is elementwise what an AddEdge
// loop over g.Edges() builds (READS samples In() by position, so the
// order matters), and the generation counts one bump per edge as that
// loop's would. The rows share one copied backing array, each capped at
// its own length, so an append reallocates instead of overwriting the
// next row.
func (g *Graph) Thaw() *DiGraph {
	d := &DiGraph{
		directed: g.directed,
		in:       make([][]NodeID, g.n),
		out:      make([][]NodeID, g.n),
		arcs:     len(g.inAdj),
		gen:      uint64(g.NumEdges()),
	}
	inAdj := append([]NodeID(nil), g.inAdj...)
	outAdj := append([]NodeID(nil), g.outAdj...)
	for v := 0; v < g.n; v++ {
		if lo, hi := g.inOff[v], g.inOff[v+1]; lo < hi {
			d.in[v] = inAdj[lo:hi:hi]
		}
		if lo, hi := g.outOff[v], g.outOff[v+1]; lo < hi {
			d.out[v] = outAdj[lo:hi:hi]
		}
	}
	return d
}

// Freeze produces an immutable CSR view of the current state, stamped
// with the DiGraph's Generation as its Version. The out-lists already
// group the arcs by tail, so they feed the sorted CSR build directly.
func (d *DiGraph) Freeze() *Graph {
	g := newCSR(len(d.in), d.directed, d.arcs)
	for x, heads := range d.out {
		g.outOff[x+1] = g.outOff[x] + int32(len(heads))
	}
	g.fillSorted(func(x NodeID) []NodeID { return d.out[x] })
	g.version = d.gen
	return g
}

// Edges returns the edge set: each directed arc once, or each undirected
// edge once with X <= Y. Order is unspecified.
func (d *DiGraph) Edges() []Edge {
	out := make([]Edge, 0, d.NumEdges())
	for x := NodeID(0); int(x) < len(d.out); x++ {
		for _, y := range d.out[x] {
			if d.directed || x <= y {
				out = append(out, Edge{X: x, Y: y})
			}
		}
	}
	return out
}

func contains(s []NodeID, v NodeID) bool {
	for _, u := range s {
		if u == v {
			return true
		}
	}
	return false
}

func swapRemove(s []NodeID, v NodeID) []NodeID {
	for i, u := range s {
		if u == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
