// Package graph provides the graph substrate shared by every SimRank
// algorithm in this module: an immutable compressed-sparse-row (CSR)
// representation optimized for the read-heavy random-walk workloads,
// edge-list I/O, and the mutable in-list copy READS and TSF update.
//
// SimRank is defined over in-neighbors, so the CSR indexes the
// in-adjacency as the primary direction; out-adjacency is kept as well
// because ProbeSim's probes and CrashSim-T's affected-area computation
// traverse forward edges.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// NodeID identifies a node. Nodes are dense integers in [0, n).
type NodeID = int32

// Edge is a directed edge x -> y. For undirected graphs an Edge denotes
// the undirected pair {X, Y} and both arcs are materialized internally.
type Edge struct {
	X, Y NodeID
}

// Graph is an immutable directed graph in CSR form. Build one with
// NewBuilder or Merge. The zero value is an empty graph.
type Graph struct {
	n        int
	directed bool
	version  uint64 // content hash (Builder) or the version Merge was given

	inOff  []int32  // len n+1; in-adjacency offsets
	inAdj  []NodeID // concatenated in-neighbor lists, sorted per node
	outOff []int32
	outAdj []NodeID
}

// NumNodes returns the number of nodes n.
func (g *Graph) NumNodes() int { return g.n }

// Version identifies the edge-set state of the graph. Merge stamps the
// version its caller gives; a temporal cursor gives its count of edge
// changes, so two snapshots of an evolving graph get equal versions
// exactly when no edge changed in between — the invalidation signal the
// serving layer's result cache keys on. Builder-frozen graphs carry a
// content-derived version (a hash of the CSR arrays, marked with the
// high bit so the two version families never collide): two distinct
// builder graphs sharing a cache get distinct versions, the same edge
// list hashes identically across runs and processes, and a persisted
// snapshot can verify on load that its recorded version still
// describes its arrays.
func (g *Graph) Version() uint64 { return g.version }

// contentVersionBit marks content-derived versions. Change counters are
// small; forcing the bit keeps the two version families disjoint, so a
// builder-frozen graph can never alias a cursor's snapshot in a shared
// cache.
const contentVersionBit = uint64(1) << 63

// VersionIsContentDerived reports whether v is a content-derived version
// (a Builder-frozen graph's CSR hash) as opposed to a change counter.
// The persistent-store loader uses it to decide whether a snapshot's
// recorded version can be recomputed and verified.
func VersionIsContentDerived(v uint64) bool { return v&contentVersionBit != 0 }

// contentVersion hashes the graph identity: node count, direction and
// the in-CSR arrays (the out-CSR is derivable from the in-CSR, so
// hashing one side identifies the edge set). 64-bit FNV-1a, as
// hash/fnv computes it, over n as 8 little-endian bytes, the direction
// as one byte and each array entry as 4 little-endian bytes:
// deterministic across runs and platforms.
func contentVersion(n int, directed bool, inOff []int32, inAdj []NodeID) uint64 {
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint32(uint64(n)))
	h = fnvWord(h, uint32(uint64(n)>>32))
	d := uint64(0)
	if directed {
		d = 1
	}
	h = (h ^ d) * fnvPrime64
	for _, v := range inOff {
		h = fnvWord(h, uint32(v))
	}
	for _, v := range inAdj {
		h = fnvWord(h, uint32(v))
	}
	return h | contentVersionBit
}

// The 64-bit FNV parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord feeds v's four little-endian bytes to the FNV-1a state h.
func fnvWord(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime64
	return (h ^ uint64(v>>24)) * fnvPrime64
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
	_, found := slices.BinarySearch(g.In(y), x)
	return found
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
	if err := checkShape(g.n, g.inOff, g.inAdj, g.outOff, g.outAdj); err != nil {
		return err
	}
	for _, s := range csrSides(g.inOff, g.inAdj, g.outOff, g.outAdj) {
		for v := 0; v < g.n; v++ {
			row := s.adj[s.off[v]:s.off[v+1]]
			for i, u := range row {
				if u < 0 || int(u) >= g.n {
					return fmt.Errorf("graph: %s adjacency of node %d references out-of-range node %d", s.dir, v, u)
				}
				if i > 0 && row[i-1] >= u {
					return fmt.Errorf("graph: %s adjacency of node %d not strictly sorted", s.dir, v)
				}
			}
		}
	}
	// Every arc x->y in the in-adjacency of y must appear in the
	// out-adjacency of x.
	for v := NodeID(0); int(v) < g.n; v++ {
		for _, x := range g.In(v) {
			if _, found := slices.BinarySearch(g.Out(x), v); !found {
				return fmt.Errorf("graph: arc %d->%d present in in-adjacency but missing from out-adjacency", x, v)
			}
		}
	}
	return nil
}

// csrSide is one direction's CSR arrays, named for error messages.
type csrSide struct {
	off []int32
	adj []NodeID
	dir string
}

func csrSides(inOff []int32, inAdj []NodeID, outOff []int32, outAdj []NodeID) [2]csrSide {
	return [2]csrSide{{inOff, inAdj, "in"}, {outOff, outAdj, "out"}}
}

// checkShape runs the O(n) CSR checks, all before any row is read:
// offsets of length n+1 that span their adjacency and never decrease,
// and equal in and out arc counts.
func checkShape(n int, inOff []int32, inAdj []NodeID, outOff []int32, outAdj []NodeID) error {
	if len(inOff) != n+1 || len(outOff) != n+1 {
		return fmt.Errorf("graph: offset arrays have wrong length (n=%d, in=%d, out=%d)",
			n, len(inOff), len(outOff))
	}
	for _, s := range csrSides(inOff, inAdj, outOff, outAdj) {
		if s.off[0] != 0 || int(s.off[n]) != len(s.adj) {
			return fmt.Errorf("graph: %s offsets do not span adjacency (first=%d, last=%d, len=%d)",
				s.dir, s.off[0], s.off[n], len(s.adj))
		}
		for v := 0; v < n; v++ {
			if s.off[v] > s.off[v+1] {
				return fmt.Errorf("graph: %s offsets not monotone at node %d", s.dir, v)
			}
		}
	}
	if len(inAdj) != len(outAdj) {
		return fmt.Errorf("graph: in/out arc counts differ (%d vs %d)", len(inAdj), len(outAdj))
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are rejected at Freeze time with an error, matching
// the simple-graph model SimRank assumes.
type Builder struct {
	n        int
	directed bool
	// edges holds the edges in insertion order, in chunks that are
	// never copied once written: each new chunk is twice the size of
	// the last, so the chunks add up to less than twice the edges. An
	// append-grown slice would leave behind arrays adding up to several
	// times its final one.
	edges [][]Edge
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// AddEdge records the edge x -> y (or the undirected pair {x,y}).
func (b *Builder) AddEdge(x, y NodeID) *Builder {
	b.add(Edge{X: x, Y: y})
	return b
}

// AddEdges records a batch of edges.
func (b *Builder) AddEdges(edges []Edge) *Builder {
	if len(edges) > 0 {
		b.edges = append(b.edges, slices.Clone(edges))
	}
	return b
}

// add records e in the last chunk, starting a new one when it is full.
func (b *Builder) add(e Edge) {
	k := len(b.edges)
	if k == 0 || len(b.edges[k-1]) == cap(b.edges[k-1]) {
		size := 64
		if k > 0 {
			size = 2 * cap(b.edges[k-1])
		}
		b.edges = append(b.edges, make([]Edge, 0, size))
		k++
	}
	b.edges[k-1] = append(b.edges[k-1], e)
}

// Freeze validates the accumulated edges and builds the CSR graph. The
// graph's Version is content-derived: a hash of the CSR arrays, so two
// builder graphs get equal versions exactly when their (n, direction,
// edge set) agree — the identity the serving caches and the persistent
// index store key on.
//
// Valid edges cost a range check each, one counting CSR build and a
// scan of the sorted in-rows for a repeat, which is how a duplicate
// edge shows in them; only when one of those fails does firstError walk
// the edges again to name the first it refuses.
func (b *Builder) Freeze() (*Graph, error) {
	for _, chunk := range b.edges {
		for _, e := range chunk {
			if CheckEdge(b.n, e.X, e.Y) != nil {
				return nil, b.firstError()
			}
		}
	}
	g := fromEdges(b.n, b.directed, b.edges...)
	if g.HasRepeats() {
		return nil, b.firstError()
	}
	g.version = contentVersion(g.n, g.directed, g.inOff, g.inAdj)
	return g, nil
}

// firstError returns the error for the first edge, in insertion order,
// that is out of range, a self-loop or a repeat of an earlier one (for
// undirected graphs, in either orientation); nil if there is none.
func (b *Builder) firstError() error {
	m := 0
	for _, chunk := range b.edges {
		m += len(chunk)
	}
	seen := make(map[Edge]struct{}, m)
	for _, chunk := range b.edges {
		for _, e := range chunk {
			if err := CheckEdge(b.n, e.X, e.Y); err != nil {
				return err
			}
			key := e
			if !b.directed && key.X > key.Y {
				key.X, key.Y = key.Y, key.X
			}
			if _, dup := seen[key]; dup {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", e.X, e.Y)
			}
			seen[key] = struct{}{}
		}
	}
	return nil
}

// MustFreeze is Freeze for statically known-good graphs (tests, examples).
func (b *Builder) MustFreeze() *Graph {
	g, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return g
}

// fromEdges builds the CSR arrays from a duplicate-free, loop-free
// edge list given in chunks (one entry per undirected pair, either way
// round). Stable counting sweeps sort every row without a comparison
// sort: the arcs are bucketed by tail into the out-rows; sweeping those
// by ascending tail fills ascending in-rows; sweeping the in-rows by
// ascending head rewrites the out-rows ascending.
func fromEdges(n int, directed bool, chunks ...[]Edge) *Graph {
	m := 0
	for _, edges := range chunks {
		m += len(edges)
	}
	if !directed {
		m *= 2
	}
	g := newCSR(n, directed, m)
	for _, edges := range chunks {
		for _, e := range edges {
			g.outOff[e.X+1]++
			g.inOff[e.Y+1]++
			if !directed {
				g.outOff[e.Y+1]++
				g.inOff[e.X+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	next := slices.Clone(g.outOff[:n])
	for _, edges := range chunks {
		for _, e := range edges {
			g.outAdj[next[e.X]] = e.Y
			next[e.X]++
			if !directed {
				g.outAdj[next[e.Y]] = e.X
				next[e.Y]++
			}
		}
	}
	copy(next, g.inOff)
	for x := NodeID(0); int(x) < n; x++ {
		for _, y := range g.Out(x) {
			g.inAdj[next[y]] = x
			next[y]++
		}
	}
	copy(next, g.outOff)
	for y := NodeID(0); int(y) < n; y++ {
		for _, x := range g.In(y) {
			g.outAdj[next[x]] = y
			next[x]++
		}
	}
	return g
}

// HasRepeats reports whether any in-row of g lists a node twice. A
// graph from a Builder never does; a merge into an empty graph does
// exactly when its edge list repeats an edge (undirected: in either
// orientation), since every in-row comes out sorted.
func (g *Graph) HasRepeats() bool {
	for v := 1; v < len(g.inOff); v++ {
		for i := g.inOff[v-1] + 1; i < g.inOff[v]; i++ {
			if g.inAdj[i] == g.inAdj[i-1] {
				return true
			}
		}
	}
	return false
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

// Merge returns a new graph with g's edges less del plus add, stamped
// with version; g is unchanged. Only the rows the changes touch are
// merged, and each run of untouched rows is one bulk copy: O(n + m)
// sequential work plus sorting the changed arcs. Edges are given as for
// a Builder, undirected ones in either orientation. The caller
// guarantees that del's edges are in g, add's are not, and no edge
// appears twice; merged into an empty graph (a plain CSR build), an
// edge added twice shows up twice in its rows.
func (g *Graph) Merge(add, del []Edge, version uint64) *Graph {
	var out *Graph
	if len(g.inAdj) == 0 {
		out = fromEdges(g.n, g.directed, add)
	} else {
		// Each change as (row head, column tail), for the in-rows.
		ch := make([]arcChange, 0, 2*(len(add)+len(del)))
		for i, es := range [2][]Edge{del, add} {
			for _, e := range es {
				ch = append(ch, arcChange{row: e.Y, col: e.X, add: i == 1})
				if !g.directed {
					ch = append(ch, arcChange{row: e.X, col: e.Y, add: i == 1})
				}
			}
		}
		out = &Graph{n: g.n, directed: g.directed}
		out.inOff, out.inAdj = mergeRows(g.inOff, g.inAdj, ch)
		for i := range ch {
			ch[i].row, ch[i].col = ch[i].col, ch[i].row
		}
		out.outOff, out.outAdj = mergeRows(g.outOff, g.outAdj, ch)
	}
	out.version = version
	return out
}

// arcChange is one arc Merge inserts (add) or deletes, addressed by the
// CSR row it lands in and its column within that row.
type arcChange struct {
	row, col NodeID
	add      bool
}

// mergeRows applies ch, sorted here by (row, col), to one side's CSR
// arrays and returns the new arrays.
func mergeRows(off []int32, adj []NodeID, ch []arcChange) ([]int32, []NodeID) {
	slices.SortFunc(ch, func(a, b arcChange) int {
		return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.col, b.col))
	})
	n := len(off) - 1
	newOff := make([]int32, n+1)
	newAdj := make([]NodeID, 0, len(adj)+len(ch))
	next := 0 // first row not yet written
	copyRows := func(hi int) {
		shift := int32(len(newAdj)) - off[next]
		newAdj = append(newAdj, adj[off[next]:off[hi]]...)
		for v := next + 1; v <= hi; v++ {
			newOff[v] = off[v] + shift
		}
		next = hi
	}
	for i := 0; i < len(ch); {
		r := int(ch[i].row)
		copyRows(r)
		row := adj[off[r]:off[r+1]]
		for ; i < len(ch) && int(ch[i].row) == r; i++ {
			k, _ := slices.BinarySearch(row, ch[i].col)
			newAdj = append(newAdj, row[:k]...)
			row = row[k:]
			if ch[i].add {
				newAdj = append(newAdj, ch[i].col)
			} else {
				row = row[1:]
			}
		}
		newAdj = append(newAdj, row...)
		newOff[r+1] = int32(len(newAdj))
		next = r + 1
	}
	copyRows(n)
	return newOff, newAdj
}

// FromCSR reconstructs an immutable Graph from raw CSR arrays, as read
// back by the persistent index store. The arrays are adopted, not
// copied — the caller must not modify them afterwards. The input is
// treated as untrusted: the full CSR invariants are validated, and a
// content-derived version is recomputed from the arrays and must match
// the recorded one (a change-counter version cannot be recomputed and
// is adopted as-is; the store's section checksums guard it).
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
	if err := checkShape(n, inOff, inAdj, outOff, outAdj); err != nil {
		return nil, err
	}
	return &Graph{
		n: n, directed: directed, version: version,
		inOff: inOff, inAdj: inAdj, outOff: outOff, outAdj: outAdj,
	}, nil
}
