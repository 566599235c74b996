package graph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// Builder-frozen graphs used to report Version() == 0, which was only
// sound while a graph could never outlive its process: two different
// builder graphs sharing one result cache collided on version 0, and a
// persisted snapshot had no identity to verify against. The version is
// now content-derived.

func TestBuilderContentVersionDistinct(t *testing.T) {
	a := NewBuilder(3, true).AddEdge(0, 1).MustFreeze()
	b := NewBuilder(3, true).AddEdge(1, 2).MustFreeze()
	if a.Version() == 0 || b.Version() == 0 {
		t.Fatalf("builder-frozen versions must not be 0 (got %#x, %#x)", a.Version(), b.Version())
	}
	if a.Version() == b.Version() {
		t.Fatalf("distinct builder graphs share version %#x", a.Version())
	}
	// Same n, same direction, different edge direction only.
	c := NewBuilder(3, true).AddEdge(1, 0).MustFreeze()
	if c.Version() == a.Version() {
		t.Fatalf("reversed edge shares version %#x", a.Version())
	}
}

func TestBuilderContentVersionStable(t *testing.T) {
	build := func() *Graph {
		return NewBuilder(4, true).AddEdge(2, 3).AddEdge(0, 1).AddEdge(1, 2).MustFreeze()
	}
	a, b := build(), build()
	if a.Version() != b.Version() {
		t.Fatalf("same edge list froze to different versions: %#x vs %#x", a.Version(), b.Version())
	}
	// Insertion order must not matter: the CSR form is canonical.
	c := NewBuilder(4, true).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).MustFreeze()
	if c.Version() != a.Version() {
		t.Fatalf("edge insertion order changed version: %#x vs %#x", c.Version(), a.Version())
	}
}

func TestVersionFamiliesDisjoint(t *testing.T) {
	b := NewBuilder(3, true).AddEdge(0, 1).MustFreeze()
	if !VersionIsContentDerived(b.Version()) {
		t.Fatalf("builder version %#x not marked content-derived", b.Version())
	}
	// Merge stamps the version it is given, a temporal cursor's change
	// counter: it must not read as a content hash.
	if g := b.Merge([]Edge{{X: 1, Y: 2}}, nil, 2); g.Version() != 2 || VersionIsContentDerived(g.Version()) {
		t.Fatalf("merged version %#x, want the counter 2", g.Version())
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	g := NewBuilder(4, true).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(0, 3).MustFreeze()
	inOff, inAdj := g.InCSR()
	outOff, outAdj := g.OutCSR()
	got, err := FromCSR(g.NumNodes(), g.Directed(), g.Version(), inOff, inAdj, outOff, outAdj)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != g.Version() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round-trip mismatch: version %#x vs %#x, edges %d vs %d",
			got.Version(), g.Version(), got.NumEdges(), g.NumEdges())
	}
	// A content-derived version that does not describe the arrays must be
	// rejected: that is the loader's graph-identity check.
	if _, err := FromCSR(g.NumNodes(), g.Directed(), g.Version()^1, inOff, inAdj, outOff, outAdj); err == nil {
		t.Fatal("FromCSR accepted a forged content version")
	}
	// A change-counter version (no marker bit) is adopted as-is.
	if got, err := FromCSR(g.NumNodes(), g.Directed(), 7, inOff, inAdj, outOff, outAdj); err != nil || got.Version() != 7 {
		t.Fatalf("FromCSR with change-counter version: got %v, %v", got, err)
	}
}

// fnvVersion is contentVersion written with hash/fnv, one Write per
// little-endian word, as the version was first defined.
func fnvVersion(g *Graph) uint64 {
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(g.NumNodes())))
	d := byte(0)
	if g.Directed() {
		d = 1
	}
	h.Write([]byte{d})
	off, adj := g.InCSR()
	var buf [4]byte
	for _, v := range off {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	for _, v := range adj {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return h.Sum64() | contentVersionBit
}

// TestContentVersionGolden pins the content versions of three graphs to
// literals, and each to its hash/fnv computation. Persisted snapshots
// and the benchmark's input fingerprints carry these versions, so a
// faster hash must reproduce them bit for bit.
func TestContentVersionGolden(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want uint64
	}{
		{"paper example", PaperExample(), 0xb1806ff577634679},
		{"directed", NewBuilder(6, true).AddEdge(5, 0).AddEdge(0, 1).AddEdge(2, 1).AddEdge(1, 3).AddEdge(3, 4).MustFreeze(), 0xecfbac723f32fe56},
		{"undirected", NewBuilder(5, false).AddEdge(0, 1).AddEdge(2, 1).AddEdge(4, 3).AddEdge(0, 4).MustFreeze(), 0x84d557285c41a1ec},
	}
	for _, tc := range cases {
		if got := tc.g.Version(); got != tc.want {
			t.Errorf("%s: version %#x, pinned %#x", tc.name, got, tc.want)
		}
		if ref := fnvVersion(tc.g); ref != tc.want {
			t.Errorf("%s: hash/fnv version %#x, pinned %#x", tc.name, ref, tc.want)
		}
	}
}
