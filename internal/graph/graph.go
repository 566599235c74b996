// Package graph provides the graph substrate shared by every SimRank
// algorithm in this module: an immutable compressed-sparse-row (CSR)
// representation optimized for the read-heavy random-walk workloads, a
// mutable adjacency-list representation for graphs that evolve over time,
// and edge-list I/O.
//
// SimRank is defined over in-neighbors, so both representations index the
// in-adjacency as the primary direction; out-adjacency is kept as well
// because ProbeSim's probes and CrashSim-T's affected-area computation
// traverse forward edges.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// NodeID identifies a node. Nodes are dense integers in [0, n).
type NodeID = int32

// Edge is a directed edge x -> y. For undirected graphs an Edge denotes
// the undirected pair {X, Y} and both arcs are materialized internally.
type Edge struct {
	X, Y NodeID
}

// Graph is an immutable directed graph in CSR form. Build one with
// NewBuilder or DiGraph.Freeze. The zero value is an empty graph.
type Graph struct {
	n        int
	directed bool
	version  uint64 // generation of the DiGraph this was frozen from

	inOff  []int32  // len n+1; in-adjacency offsets
	inAdj  []NodeID // concatenated in-neighbor lists, sorted per node
	outOff []int32
	outAdj []NodeID
}

// NumNodes returns the number of nodes n.
func (g *Graph) NumNodes() int { return g.n }

// Version identifies the edge-set state this snapshot was frozen from.
// Graphs frozen from a DiGraph carry its Generation, so two freezes of
// an evolving graph get equal versions exactly when no edge changed in
// between — the invalidation signal the serving layer's result cache
// keys on. Builder-frozen graphs carry a content-derived version (a hash
// of the CSR arrays, marked with the high bit so the two version
// families never collide): two distinct builder graphs sharing a cache
// get distinct versions, the same edge list hashes identically across
// runs and processes, and a persisted snapshot can verify on load that
// its recorded version still describes its arrays.
func (g *Graph) Version() uint64 { return g.version }

// contentVersionBit marks content-derived versions. DiGraph generations
// are small counters; forcing the bit keeps the two version families
// disjoint, so a builder-frozen graph can never alias a DiGraph freeze
// in a shared cache.
const contentVersionBit = uint64(1) << 63

// VersionIsContentDerived reports whether v is a content-derived version
// (a Builder-frozen graph's CSR hash) as opposed to a DiGraph
// generation. The persistent-store loader uses it to decide whether a
// snapshot's recorded version can be recomputed and verified.
func VersionIsContentDerived(v uint64) bool { return v&contentVersionBit != 0 }

// contentVersion hashes the graph identity: node count, direction and
// the in-CSR arrays (the out-CSR is derivable from the in-CSR, so
// hashing one side identifies the edge set). FNV-1a over the raw
// little-endian words, deterministic across runs and platforms.
func contentVersion(n int, directed bool, inOff []int32, inAdj []NodeID) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	d := byte(0)
	if directed {
		d = 1
	}
	h.Write([]byte{d})
	for _, v := range inOff {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	for _, v := range inAdj {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	return h.Sum64() | contentVersionBit
}

// NumEdges returns the number of directed arcs for directed graphs, or the
// number of undirected edges for undirected graphs.
func (g *Graph) NumEdges() int {
	if g.directed {
		return len(g.inAdj)
	}
	return len(g.inAdj) / 2
}

// Directed reports whether the graph was built as directed.
func (g *Graph) Directed() bool { return g.directed }

// In returns the in-neighbor list of v. The returned slice is shared with
// the graph and must not be modified.
func (g *Graph) In(v NodeID) []NodeID {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// InCSR exposes the raw in-adjacency CSR arrays: offsets of length n+1
// and the concatenated in-neighbor lists (node v's in-neighbors are
// adj[offsets[v]:offsets[v+1]]). Both slices share the graph's storage
// and must be treated as read-only. Sampling kernels use this to step
// through the adjacency without constructing a slice header per step.
func (g *Graph) InCSR() (offsets []int32, adj []NodeID) {
	return g.inOff, g.inAdj
}

// Out returns the out-neighbor list of v. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Out(v NodeID) []NodeID {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// OutCSR exposes the raw out-adjacency CSR arrays, the forward-direction
// counterpart of InCSR. Both slices share the graph's storage and must
// be treated as read-only. The persistent index store serializes these
// arrays directly.
func (g *Graph) OutCSR() (offsets []int32, adj []NodeID) {
	return g.outOff, g.outAdj
}

// InDegree returns |I(v)|.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// OutDegree returns the number of out-neighbors of v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// HasEdge reports whether the arc x -> y exists (for undirected graphs,
// whether {x,y} exists). Runs in O(log deg).
func (g *Graph) HasEdge(x, y NodeID) bool {
	in := g.In(y)
	i := sort.Search(len(in), func(i int) bool { return in[i] >= x })
	return i < len(in) && in[i] == x
}

// Edges returns all edges of the graph: each directed arc once, or each
// undirected edge once with X <= Y.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := NodeID(0); int(v) < g.n; v++ {
		for _, x := range g.In(v) {
			if g.directed || x <= v {
				out = append(out, Edge{X: x, Y: v})
			}
		}
	}
	return out
}

// Validate checks internal CSR invariants. It is used by tests and by the
// loaders after constructing a graph from untrusted input.
func (g *Graph) Validate() error {
	if len(g.inOff) != g.n+1 || len(g.outOff) != g.n+1 {
		return fmt.Errorf("graph: offset arrays have wrong length (n=%d, in=%d, out=%d)",
			g.n, len(g.inOff), len(g.outOff))
	}
	if err := validateCSR(g.n, g.inOff, g.inAdj, "in"); err != nil {
		return err
	}
	if err := validateCSR(g.n, g.outOff, g.outAdj, "out"); err != nil {
		return err
	}
	if len(g.inAdj) != len(g.outAdj) {
		return fmt.Errorf("graph: in/out arc counts differ (%d vs %d)", len(g.inAdj), len(g.outAdj))
	}
	// Every arc x->y in the in-adjacency of y must appear in the
	// out-adjacency of x.
	for v := NodeID(0); int(v) < g.n; v++ {
		for _, x := range g.In(v) {
			out := g.Out(x)
			i := sort.Search(len(out), func(i int) bool { return out[i] >= v })
			if i >= len(out) || out[i] != v {
				return fmt.Errorf("graph: arc %d->%d present in in-adjacency but missing from out-adjacency", x, v)
			}
		}
	}
	return nil
}

func validateCSR(n int, off []int32, adj []NodeID, dir string) error {
	if off[0] != 0 || int(off[n]) != len(adj) {
		return fmt.Errorf("graph: %s offsets do not span adjacency (first=%d, last=%d, len=%d)",
			dir, off[0], off[n], len(adj))
	}
	// All offsets first: a later offset out of order could otherwise
	// put an earlier row past the end of adj.
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return fmt.Errorf("graph: %s offsets not monotone at node %d", dir, v)
		}
	}
	for v := 0; v < n; v++ {
		row := adj[off[v]:off[v+1]]
		for i, u := range row {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: %s adjacency of node %d references out-of-range node %d", dir, v, u)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: %s adjacency of node %d not strictly sorted", dir, v)
			}
		}
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are rejected at Freeze time with an error, matching
// the simple-graph model SimRank assumes.
type Builder struct {
	n        int
	directed bool
	edges    []Edge
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// AddEdge records the edge x -> y (or the undirected pair {x,y}).
func (b *Builder) AddEdge(x, y NodeID) *Builder {
	b.edges = append(b.edges, Edge{X: x, Y: y})
	return b
}

// AddEdges records a batch of edges.
func (b *Builder) AddEdges(edges []Edge) *Builder {
	b.edges = append(b.edges, edges...)
	return b
}

// Freeze validates the accumulated edges and builds the CSR graph. The
// graph's Version is content-derived: a hash of the CSR arrays, so two
// builder graphs get equal versions exactly when their (n, direction,
// edge set) agree — the identity the serving caches and the persistent
// index store key on.
func (b *Builder) Freeze() (*Graph, error) {
	arcs := make([]Edge, 0, len(b.edges)*2)
	seen := make(map[Edge]struct{}, len(b.edges))
	for _, e := range b.edges {
		if e.X < 0 || int(e.X) >= b.n || e.Y < 0 || int(e.Y) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.X, e.Y, b.n)
		}
		if e.X == e.Y {
			return nil, fmt.Errorf("graph: self-loop at node %d not allowed", e.X)
		}
		key := e
		if !b.directed && key.X > key.Y {
			key.X, key.Y = key.Y, key.X
		}
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", e.X, e.Y)
		}
		seen[key] = struct{}{}
		arcs = append(arcs, e)
		if !b.directed {
			arcs = append(arcs, Edge{X: e.Y, Y: e.X})
		}
	}
	g := fromArcs(b.n, b.directed, arcs)
	g.version = contentVersion(g.n, g.directed, g.inOff, g.inAdj)
	return g, nil
}

// MustFreeze is Freeze for statically known-good graphs (tests, examples).
func (b *Builder) MustFreeze() *Graph {
	g, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return g
}

// fromArcs builds the CSR arrays from a list of directed arcs that is
// already deduplicated (and symmetrized, for undirected graphs). Its
// first counting pass buckets the arcs by tail into the out-CSR, with
// rows in arc order; fillSorted then derives the sorted in-CSR from
// those rows and rewrites the out-rows in sorted order.
func fromArcs(n int, directed bool, arcs []Edge) *Graph {
	g := newCSR(n, directed, len(arcs))
	for _, e := range arcs {
		g.outOff[e.X+1]++
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
	}
	next := make([]int32, n)
	copy(next, g.outOff)
	for _, e := range arcs {
		g.outAdj[next[e.X]] = e.Y
		next[e.X]++
	}
	g.fillSorted(func(x NodeID) []NodeID { return g.outAdj[g.outOff[x]:g.outOff[x+1]] })
	return g
}

// newCSR returns a graph with zeroed offset arrays and adjacency arrays
// sized for m arcs.
func newCSR(n int, directed bool, m int) *Graph {
	return &Graph{
		n:        n,
		directed: directed,
		inOff:    make([]int32, n+1),
		outOff:   make([]int32, n+1),
		inAdj:    make([]NodeID, m),
		outAdj:   make([]NodeID, m),
	}
}

// fillSorted completes g's CSR from its arcs grouped by tail: heads(x)
// returns the heads of x's arcs in any order, and g.outOff must already
// hold the out-offsets. Two stable counting sweeps make every row come
// out sorted without a comparison sort. Sweeping tails in ascending
// order appends each tail to its heads' in-rows, so in-rows are
// ascending. Sweeping heads in ascending order over the finished
// in-CSR then rewrites the out-rows the same way. heads is read only
// before that last sweep, so it may alias g.outAdj.
func (g *Graph) fillSorted(heads func(x NodeID) []NodeID) {
	n := g.n
	next := make([]int32, n)
	for x := NodeID(0); int(x) < n; x++ {
		for _, y := range heads(x) {
			g.inOff[y+1]++
		}
	}
	for v := 0; v < n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	copy(next, g.inOff)
	for x := NodeID(0); int(x) < n; x++ {
		for _, y := range heads(x) {
			g.inAdj[next[y]] = x
			next[y]++
		}
	}
	copy(next, g.outOff)
	for y := NodeID(0); int(y) < n; y++ {
		for _, x := range g.inAdj[g.inOff[y]:g.inOff[y+1]] {
			g.outAdj[next[x]] = y
			next[x]++
		}
	}
}

// FromCSR reconstructs an immutable Graph from raw CSR arrays, as read
// back by the persistent index store. The arrays are adopted, not
// copied — the caller must not modify them afterwards. The input is
// treated as untrusted: the full CSR invariants are validated, and a
// content-derived version is recomputed from the arrays and must match
// the recorded one (a DiGraph-generation version cannot be recomputed
// and is adopted as-is; the store's section checksums guard it).
func FromCSR(n int, directed bool, version uint64, inOff []int32, inAdj []NodeID, outOff []int32, outAdj []NodeID) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	g := &Graph{
		n: n, directed: directed, version: version,
		inOff: inOff, inAdj: inAdj, outOff: outOff, outAdj: outAdj,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if VersionIsContentDerived(version) {
		if got := contentVersion(n, directed, inOff, inAdj); got != version {
			return nil, fmt.Errorf("graph: recorded content version %#x does not match arrays (recomputed %#x)", version, got)
		}
	}
	return g, nil
}

// AdoptCSR wraps raw CSR arrays without the O(m log d) full validation
// or version recomputation FromCSR performs: only O(n) shape checks
// (offset lengths, spans, monotonicity) run, and the recorded version
// is adopted as-is. This is the mmap borrow path, where the arrays
// alias a read-only mapping whose section checksum already vouches for
// the bytes; use FromCSR when the input is untrusted. The arrays are
// shared, never copied — for a mapped snapshot they are hardware
// read-only, which the Graph API already promises.
func AdoptCSR(n int, directed bool, version uint64, inOff []int32, inAdj []NodeID, outOff []int32, outAdj []NodeID) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	if len(inOff) != n+1 || len(outOff) != n+1 {
		return nil, fmt.Errorf("graph: offset arrays have wrong length (n=%d, in=%d, out=%d)",
			n, len(inOff), len(outOff))
	}
	for _, s := range [2]struct {
		off []int32
		adj []NodeID
		dir string
	}{{inOff, inAdj, "in"}, {outOff, outAdj, "out"}} {
		if s.off[0] != 0 || int(s.off[n]) != len(s.adj) {
			return nil, fmt.Errorf("graph: %s offsets do not span adjacency (first=%d, last=%d, len=%d)",
				s.dir, s.off[0], s.off[n], len(s.adj))
		}
		for v := 0; v < n; v++ {
			if s.off[v] > s.off[v+1] {
				return nil, fmt.Errorf("graph: %s offsets not monotone at node %d", s.dir, v)
			}
		}
	}
	if len(inAdj) != len(outAdj) {
		return nil, fmt.Errorf("graph: in/out arc counts differ (%d vs %d)", len(inAdj), len(outAdj))
	}
	return &Graph{
		n: n, directed: directed, version: version,
		inOff: inOff, inAdj: inAdj, outOff: outOff, outAdj: outAdj,
	}, nil
}
