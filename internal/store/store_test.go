package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crashsim/internal/graph"
	"crashsim/internal/mmap"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 24
	b := graph.NewBuilder(n, true)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		if j := (i*7 + 3) % n; j != i {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testSnapshot builds a graph plus SLING, READS and PRSim indexes over
// it and wraps their exported payloads in a snapshot.
func testSnapshot(t testing.TB) (*Snapshot, *sling.Index, *reads.Index, *prsim.Index) {
	t.Helper()
	g := testGraph(t)
	slIx, err := sling.Build(g, sling.Options{Seed: 1, DSamples: 16})
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewDiGraph(g.NumNodes(), g.Directed())
	for _, e := range g.Edges() {
		if err := d.AddEdge(e.X, e.Y); err != nil {
			t.Fatal(err)
		}
	}
	rdIx, err := reads.Build(d, reads.Options{R: 8, MaxLen: 5, RQ: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prIx, err := prsim.Build(g, prsim.Options{HubFraction: 0.25, Iterations: 60, DSamples: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Touch one source so the payload carries lazily cached tail tables
	// alongside the eager hubs.
	if _, err := prIx.SingleSource(0); err != nil {
		t.Fatal(err)
	}
	slP := slIx.Export()
	rdP := rdIx.Export()
	prP := prIx.Export()
	return &Snapshot{
		Graph: g,
		Meta:  Meta{Dataset: "unit-test", Tool: "store_test", CreatedUnix: 1754600000},
		Sling: &slP,
		Reads: &rdP,
		PRSim: &prP,
	}, slIx, rdIx, prIx
}

func encodeOK(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sectionEntry locates a section in an encoded snapshot and returns the
// file offset of its table entry and of its payload.
func sectionEntry(t testing.TB, data []byte, name string) (entryOff, payloadOff, payloadLen int) {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[20:24]))
	for i := 0; i < count; i++ {
		e := headerSize + i*sectionHeaderSize
		got := string(data[e : e+8])
		for len(got) > 0 && got[len(got)-1] == 0 {
			got = got[:len(got)-1]
		}
		if got == name {
			off := int(binary.LittleEndian.Uint64(data[e+8 : e+16]))
			length := int(binary.LittleEndian.Uint64(data[e+16 : e+24]))
			return e, off, length
		}
	}
	t.Fatalf("section %q not found", name)
	return 0, 0, 0
}

// importAll imports the three index sections of mp over its own graph
// and closes them when the test ends.
func importAll(t testing.TB, mp *Mapped) (*sling.Index, *reads.Index, *prsim.Index) {
	t.Helper()
	g := mp.Graph()
	sl, err := mp.ImportSling(g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sl.Close() })
	rd, err := mp.ImportReads(g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	pr, err := mp.ImportPRSim(g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pr.Close() })
	return sl, rd, pr
}

// requireExports fails unless the imported indexes export exactly the
// payloads snap was written from. Call it before querying: a PRSim
// query caches tail tables that a later export would include.
func requireExports(t *testing.T, snap *Snapshot, sl *sling.Index, rd *reads.Index, pr *prsim.Index) {
	t.Helper()
	if got := sl.Export(); !reflect.DeepEqual(&got, snap.Sling) {
		t.Fatal("imported sling index exports a different payload")
	}
	if got := rd.Export(); !reflect.DeepEqual(&got, snap.Reads) {
		t.Fatal("imported reads index exports a different payload")
	}
	if got := pr.Export(); !reflect.DeepEqual(&got, snap.PRSim) {
		t.Fatal("imported prsim index exports a different payload")
	}
}

type singleSource func(graph.NodeID) (map[graph.NodeID]float64, error)

// requireSameScores fails unless every (want, have) pair answers every
// source in [0, n) bit-identically.
func requireSameScores(t *testing.T, n int, what string, want, have [3]singleSource) {
	t.Helper()
	for i, name := range []string{"sling", "reads", "prsim"} {
		for u := 0; u < n; u++ {
			w, err := want[i](graph.NodeID(u))
			if err != nil {
				t.Fatal(err)
			}
			h, err := have[i](graph.NodeID(u))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(w, h) {
				t.Fatalf("%s SingleSource(%d) differs: %s", name, u, what)
			}
		}
	}
}

func scorers(sl *sling.Index, rd *reads.Index, pr *prsim.Index) [3]singleSource {
	return [3]singleSource{sl.SingleSource, rd.SingleSource, pr.SingleSource}
}

func TestRoundTripBitIdentical(t *testing.T) {
	snap, slIx, rdIx, prIx := testSnapshot(t)
	mp, err := Decode(encodeOK(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	g := mp.Graph()
	if g.Version() != snap.Graph.Version() {
		t.Fatalf("graph version %#x, want %#x", g.Version(), snap.Graph.Version())
	}
	if g.NumEdges() != snap.Graph.NumEdges() || g.NumNodes() != snap.Graph.NumNodes() {
		t.Fatalf("graph shape %d/%d, want %d/%d",
			g.NumNodes(), g.NumEdges(), snap.Graph.NumNodes(), snap.Graph.NumEdges())
	}
	if mp.Meta() != snap.Meta {
		t.Fatalf("meta %+v, want %+v", mp.Meta(), snap.Meta)
	}
	sl, rd, pr := importAll(t, mp)
	requireExports(t, snap, sl, rd, pr)
	if pr.HubCount() != prIx.HubCount() {
		t.Fatalf("loaded prsim hub count %d, want %d", pr.HubCount(), prIx.HubCount())
	}
	// The loaded indexes must answer exactly what the built ones answer:
	// same keys, bit-identical float64s.
	requireSameScores(t, g.NumNodes(), "built vs decoded",
		scorers(slIx, rdIx, prIx), scorers(sl, rd, pr))
}

func TestWriteLoadFile(t *testing.T) {
	snap, _, _, _ := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "test.snap")
	if err := Write(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.GraphVersion() != snap.Graph.Version() || !got.Has(SecSling) || !got.Has(SecReads) || !got.Has(SecPRSim) {
		t.Fatalf("loaded snapshot incomplete: version %#x, sling %v, reads %v, prsim %v",
			got.GraphVersion(), got.Has(SecSling), got.Has(SecReads), got.Has(SecPRSim))
	}
	if got.Path() != path {
		t.Fatalf("Path() = %q, want %q", got.Path(), path)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("loading an absent file succeeded")
	}
}

// corruption is one row of the corruption matrix: a damaged image and
// the sentinel it must fail with (nil: any error will do).
type corruption struct {
	name string
	data []byte
	want error
}

// corruptions derives every row of the corruption matrix from a
// pristine image. FuzzDecode seeds its corpus from the same rows.
func corruptions(t testing.TB, snap *Snapshot, pristine []byte) []corruption {
	mutate := func(f func(d []byte) []byte) []byte {
		return f(append([]byte(nil), pristine...))
	}
	rows := []corruption{
		{"bad magic", mutate(func(d []byte) []byte { d[0] = 'X'; return d }), ErrBadMagic},
		{"wrong format version", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], FormatVersion+7)
			return d
		}), ErrFormatVersion},
		// Format v1 (the unaligned pre-mmap layout) is no longer read.
		{"v1 header", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], 1)
			return d
		}), ErrFormatVersion},
		// Format v2 (dead columns and nested accel blobs in the index
		// sections) is no longer read either.
		{"v2 header", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], 2)
			return d
		}), ErrFormatVersion},
		{"empty file", nil, ErrTruncated},
		{"truncated header", pristine[:headerSize-4], ErrTruncated},
		{"truncated section table", pristine[:headerSize+sectionHeaderSize/2], ErrTruncated},
		// A count of 2^31 or more went negative through int() on 32-bit
		// platforms, slipped past the bound check and panicked in make.
		{"huge section count", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[20:24], 0x80000001)
			return d
		}), ErrTruncated},
		{"truncated payload", pristine[:len(pristine)-3], ErrTruncated},
	}
	for _, sec := range []string{SecGraph, SecMeta, SecSling, SecReads, SecPRSim} {
		rows = append(rows, corruption{"bit flip in " + sec, mutate(func(d []byte) []byte {
			_, off, length := sectionEntry(t, d, sec)
			d[off+length/2] ^= 0x10
			return d
		}), ErrChecksum})
	}
	return append(rows,
		// Eager open hashes every table entry, including names this
		// build does not know.
		corruption{"bit flip in unknown section", mutate(func(d []byte) []byte {
			entry, off, length := sectionEntry(t, d, SecSling)
			copy(d[entry:entry+8], "future\x00\x00")
			d[off+length/2] ^= 0x10
			return d
		}), ErrChecksum},
		// Forge a sling section recorded against another graph version,
		// with a valid CRC so only the version gate can catch it.
		corruption{"index built for a different graph", mutate(func(d []byte) []byte {
			entry, off, length := sectionEntry(t, d, SecSling)
			d[off] ^= 0xFF
			binary.LittleEndian.PutUint32(d[entry+24:entry+28], crc32.ChecksumIEEE(d[off:off+length]))
			return d
		}), ErrVersionMismatch},
		// An out-of-range option with a valid CRC fails the open: the
		// section decoders run Validate. Lmax follows the graph version,
		// C and Eps.
		corruption{"index option out of range", mutate(func(d []byte) []byte {
			entry, off, length := sectionEntry(t, d, SecSling)
			binary.LittleEndian.PutUint32(d[off+24:], 1<<30)
			binary.LittleEndian.PutUint32(d[entry+24:entry+28], crc32.ChecksumIEEE(d[off:off+length]))
			return d
		}), nil},
		// A content-derived header version that the CSR bytes do not hash
		// to must be rejected even though every checksum passes.
		corruption{"forged graph identity", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[12:20], snap.Graph.Version()^2)
			return d
		}), nil},
		corruption{"missing graph section", mutate(func(d []byte) []byte {
			entry, _, _ := sectionEntry(t, d, SecGraph)
			copy(d[entry:entry+8], "ignored\x00")
			return d
		}), ErrMissingSection},
		// Found by FuzzDecode: an in-offset out of order past the node
		// being scanned sliced the adjacency out of range in FromCSR.
		corruption{"graph offsets out of order", mutate(func(d []byte) []byte {
			entry, off, length := sectionEntry(t, d, SecGraph)
			// In-offsets follow n (8 bytes), directedness (1), the pad
			// to 16 and their u64 length; overwrite the second one.
			binary.LittleEndian.PutUint32(d[off+24+4:], 0x1000)
			binary.LittleEndian.PutUint32(d[entry+24:entry+28], crc32.ChecksumIEEE(d[off:off+length]))
			return d
		}), nil},
		// A section not on a 64-byte boundary would make the typed casts
		// undefined.
		corruption{"misaligned section offset", mutate(func(d []byte) []byte {
			entry, off, _ := sectionEntry(t, d, SecSling)
			binary.LittleEndian.PutUint64(d[entry+8:entry+16], uint64(off+4))
			return d
		}), ErrMisaligned},
		// Files must be exactly the 64-aligned span of their sections;
		// trailing garbage (or missing pad bytes — the "truncated
		// payload" row above) is refused.
		corruption{"truncated padding", mutate(func(d []byte) []byte {
			return append(d, make([]byte, sectionAlign)...)
		}), ErrTruncated},
	)
}

// The corruption matrix: every way a snapshot's bytes can be unusable
// must fail with its designated sentinel and must never yield a handle,
// through Decode, Load and an eager OpenMapped alike.
func TestCorruptionMatrix(t *testing.T) {
	snap, _, _, _ := testSnapshot(t)
	pristine := encodeOK(t, snap)
	dir := t.TempDir()
	for i, c := range corruptions(t, snap, pristine) {
		t.Run(c.name, func(t *testing.T) {
			check := func(loader string, got *Mapped, err error) {
				t.Helper()
				if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
					t.Fatalf("%s error = %v, want %v", loader, err, c.want)
				}
				if got != nil {
					t.Fatalf("%s returned a handle alongside the error", loader)
				}
			}
			got, err := Decode(append([]byte(nil), c.data...))
			check("Decode", got, err)
			path := filepath.Join(dir, fmt.Sprintf("row%d.snap", i))
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err = Load(path)
			check("Load", got, err)
			got, err = OpenMapped(path, MapOptions{Verify: VerifyEager})
			check("eager OpenMapped", got, err)
		})
	}
}

// TestDecodeRefusesMisalignedBytes: Decode casts arrays in place, so
// bytes that do not start 8-aligned are refused, not misread.
func TestDecodeRefusesMisalignedBytes(t *testing.T) {
	if !castArrays {
		t.Skip("arrays are copied out on this platform; alignment does not matter")
	}
	snap, _, _, _ := testSnapshot(t)
	pristine := encodeOK(t, snap)
	buf := make([]byte, len(pristine)+1)
	copy(buf[1:], pristine)
	if got, err := Decode(buf[1:]); !errors.Is(err, ErrMisaligned) || got != nil {
		t.Fatalf("Decode of misaligned bytes: handle %v, error %v, want ErrMisaligned", got != nil, err)
	}
}

func TestImportRefusesWrongGraph(t *testing.T) {
	snap, _, _, _ := testSnapshot(t)
	got, err := Decode(encodeOK(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	other := graph.NewBuilder(24, true).AddEdge(3, 4).MustFreeze()
	if _, err := got.ImportSling(other); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("ImportSling(other graph) error = %v, want ErrVersionMismatch", err)
	}
	if _, err := got.ImportReads(other); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("ImportReads(other graph) error = %v, want ErrVersionMismatch", err)
	}
	if _, err := got.ImportPRSim(other); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("ImportPRSim(other graph) error = %v, want ErrVersionMismatch", err)
	}
}

// forgedOption is a snapshot edit that stores one out-of-range index
// option, and the text the refusal must contain to name it.
type forgedOption struct {
	want  string
	forge func(*Snapshot)
}

// forgedOptions lists one edit per bounded option plus the NaN and
// derived-count cases. The over-bound values (2^30) fit their u32
// fields, so only Validate or the PRSim constructor can refuse them.
// FuzzDecode seeds its corpus from the same edits.
func forgedOptions() []forgedOption {
	const big = 1 << 30
	nan := math.NaN()
	sl := func(f func(*sling.Options)) func(*Snapshot) {
		return func(s *Snapshot) { c := *s.Sling; f(&c.Opt); s.Sling = &c }
	}
	rd := func(f func(*reads.Options)) func(*Snapshot) {
		return func(s *Snapshot) { c := *s.Reads; f(&c.Opt); s.Reads = &c }
	}
	pr := func(f func(*prsim.Options)) func(*Snapshot) {
		return func(s *Snapshot) { c := *s.PRSim; f(&c.Opt); s.PRSim = &c }
	}
	return []forgedOption{
		{"Lmax", sl(func(o *sling.Options) { o.Lmax = big })},
		{"DSamples", sl(func(o *sling.Options) { o.DSamples = big })},
		{"c=NaN", sl(func(o *sling.Options) { o.C = nan })},
		{"eps=NaN", sl(func(o *sling.Options) { o.Eps = nan })},
		{"R 1073741824", rd(func(o *reads.Options) { o.R = big })},
		{"MaxLen", rd(func(o *reads.Options) { o.MaxLen = big })},
		{"RQ", rd(func(o *reads.Options) { o.RQ = big })},
		{"c=NaN", rd(func(o *reads.Options) { o.C = nan })},
		{"MaxDepth", pr(func(o *prsim.Options) { o.MaxDepth = big })},
		{"DSamples", pr(func(o *prsim.Options) { o.DSamples = big })},
		{"Iterations", pr(func(o *prsim.Options) { o.Iterations = big })},
		{"eps=NaN", pr(func(o *prsim.Options) { o.Eps = nan })},
		{"delta=NaN", pr(func(o *prsim.Options) { o.Delta = nan })},
		// In range, but with Iterations 0 it derives an n_q larger than
		// an int holds.
		{"Eps 1e-300", pr(func(o *prsim.Options) { o.Iterations, o.Eps = 0, 1e-300 })},
	}
}

// TestImportRefusesOverBoundOptions: a snapshot whose stored options
// are out of range must be refused — by Decode, whose section decoders
// run Validate, or at the latest by the import — with an error naming
// the field, and never run the tail builds or the query loop with it.
// The trusting VerifyNone open defers section decoding, so there the
// import must refuse it.
func TestImportRefusesOverBoundOptions(t *testing.T) {
	base, _, _, _ := testSnapshot(t)
	for _, c := range forgedOptions() {
		snap := *base
		c.forge(&snap)
		data := encodeOK(t, &snap)
		mp, err := Decode(data)
		if err == nil {
			err = importEach(mp)
			mp.Close()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Decode or import of a snapshot forged for %q: error %v, want one naming it", c.want, err)
		}
		mp, err = newMapped(mmap.FromBytes(data), "", VerifyNone)
		if err != nil {
			t.Fatalf("VerifyNone open of a snapshot forged for %q: %v", c.want, err)
		}
		if err := importEach(mp); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("VerifyNone import of a snapshot forged for %q: error %v, want one naming it", c.want, err)
		}
		mp.Close()
	}
}

// importEach imports every index section of mp over its own graph,
// closing each index again, and returns the first error.
func importEach(mp *Mapped) error {
	g := mp.Graph()
	sl, err := mp.ImportSling(g)
	if err != nil {
		return err
	}
	sl.Close()
	rd, err := mp.ImportReads(g)
	if err != nil {
		return err
	}
	rd.Close()
	pr, err := mp.ImportPRSim(g)
	if err != nil {
		return err
	}
	return pr.Close()
}

func TestImportMissingSection(t *testing.T) {
	snap, _, _, _ := testSnapshot(t)
	snap.Sling, snap.Reads, snap.PRSim = nil, nil, nil
	got, err := Decode(encodeOK(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	g := got.Graph()
	if _, err := got.ImportSling(g); !errors.Is(err, ErrMissingSection) {
		t.Fatalf("ImportSling error = %v, want ErrMissingSection", err)
	}
	if _, err := got.ImportReads(g); !errors.Is(err, ErrMissingSection) {
		t.Fatalf("ImportReads error = %v, want ErrMissingSection", err)
	}
	if _, err := got.ImportPRSim(g); !errors.Is(err, ErrMissingSection) {
		t.Fatalf("ImportPRSim error = %v, want ErrMissingSection", err)
	}
}

func TestSnapshotPathDistinct(t *testing.T) {
	a := SnapshotPath("idx", "scale-free@1.0/42", "sling")
	b := SnapshotPath("idx", "scale-free@1.0_42", "sling")
	if a == b {
		t.Fatalf("distinct specs mapped to one path %q", a)
	}
	if filepath.Dir(a) != "idx" {
		t.Fatalf("path %q not under requested dir", a)
	}
}
