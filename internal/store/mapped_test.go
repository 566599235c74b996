package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

// writeTestSnapshot writes the standard test snapshot to a temp file
// and returns its path plus the in-memory snapshot and built indexes.
func writeTestSnapshot(t *testing.T) (string, *Snapshot) {
	t.Helper()
	snap, _, _, _ := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "v2.snap")
	if err := Write(path, snap); err != nil {
		t.Fatal(err)
	}
	return path, snap
}

// TestMappedBitIdentical: every backend imported from the mapping,
// under each policy, must answer every source bit-for-bit like the
// import from the heap-loaded file.
func TestMappedBitIdentical(t *testing.T) {
	for _, verify := range []VerifyPolicy{VerifyOnLoadSection, VerifyEager, VerifyNone} {
		t.Run(verify.String(), func(t *testing.T) {
			path, snap := writeTestSnapshot(t)
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			mp, err := OpenMapped(path, MapOptions{Verify: verify})
			if err != nil {
				t.Fatal(err)
			}
			defer mp.Close()
			if mp.GraphVersion() != snap.Graph.Version() {
				t.Fatalf("mapped graph version %#x, want %#x", mp.GraphVersion(), snap.Graph.Version())
			}
			if mp.Meta() != snap.Meta {
				t.Fatalf("mapped meta %+v, want %+v", mp.Meta(), snap.Meta)
			}
			if mp.MappedBytes() == 0 {
				t.Fatal("MappedBytes() = 0")
			}
			g := mp.Graph()
			if g.NumNodes() != snap.Graph.NumNodes() || g.NumEdges() != snap.Graph.NumEdges() {
				t.Fatalf("mapped graph shape %d/%d, want %d/%d",
					g.NumNodes(), g.NumEdges(), snap.Graph.NumNodes(), snap.Graph.NumEdges())
			}
			slH, rdH, prH := importAll(t, loaded)
			slM, rdM, prM := importAll(t, mp)
			requireSameScores(t, g.NumNodes(), "heap vs mapped",
				scorers(slH, rdH, prH), scorers(slM, rdM, prM))
		})
	}
}

// TestCopyOutBitIdentical runs the big-endian decode branch — arrays
// copied out of the buffer instead of cast in place — on this host,
// through Load and through OpenMapped under every policy, and demands
// the same exports and bit-identical scores as the cast branch.
func TestCopyOutBitIdentical(t *testing.T) {
	path, snap := writeTestSnapshot(t)
	ref, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	slR, rdR, prR := importAll(t, ref)
	defer func(saved bool) { castArrays = saved }(castArrays)
	castArrays = false
	opens := map[string]func() (*Mapped, error){
		"Load": func() (*Mapped, error) { return Load(path) },
	}
	for _, verify := range []VerifyPolicy{VerifyOnLoadSection, VerifyEager, VerifyNone} {
		opens["OpenMapped/"+verify.String()] = func() (*Mapped, error) {
			return OpenMapped(path, MapOptions{Verify: verify})
		}
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			mp, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer mp.Close()
			// The branch really ran: the CSR no longer aliases the buffer.
			buf := mp.m.Bytes()
			inOff, _ := mp.Graph().InCSR()
			if p, lo := uintptr(unsafe.Pointer(&inOff[0])), uintptr(unsafe.Pointer(&buf[0])); p >= lo && p < lo+uintptr(len(buf)) {
				t.Fatal("graph CSR aliases the buffer with casts disabled")
			}
			sl, rd, pr := importAll(t, mp)
			requireExports(t, snap, sl, rd, pr)
			requireSameScores(t, mp.Graph().NumNodes(), "cast vs copy-out",
				scorers(slR, rdR, prR), scorers(sl, rd, pr))
		})
	}
}

// TestImportWorkIsSizeIndependent pins the cost of bringing an index
// online: Load, and OpenMapped under every policy, followed by an
// import of either index family, must allocate the same number of
// objects at two graph sizes, and the import itself the same number of
// bytes up to a small slack. Arrays alias the buffer, so nothing scales
// with the index except the one read buffer Load allocates; a bulk
// copy of any array is one allocation, which only the byte count sees.
func TestImportWorkIsSizeIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under -race")
	}
	if !castArrays {
		t.Skip("the copy-out branch allocates per array by design")
	}
	// byteSlack absorbs runtime allocations that land inside the
	// measurement; copying the smallest per-node array (sling's d
	// values) at n = 960 would add 7 KiB.
	const byteSlack = 1 << 10
	imports := map[string]importFunc{
		"sling": func(mp *Mapped) (interface{ Close() error }, error) { return mp.ImportSling(mp.Graph()) },
		"reads": func(mp *Mapped) (interface{ Close() error }, error) { return mp.ImportReads(mp.Graph()) },
	}
	paths := []string{sizedSnapshot(t, 48), sizedSnapshot(t, 960)}
	for _, o := range snapshotOpeners() {
		for name, imp := range imports {
			var counts []float64
			var bytes []uint64
			for _, path := range paths {
				counts = append(counts, testing.AllocsPerRun(5, func() {
					mp, err := o.open(path)
					if err != nil {
						t.Fatal(err)
					}
					ix, err := imp(mp)
					if err != nil {
						t.Fatal(err)
					}
					ix.Close()
					mp.Close()
				}))
				bytes = append(bytes, importBytes(t, o.open, path, imp))
			}
			t.Logf("%s + Import%s: %v allocations, %v bytes per import", o.name, name, counts, bytes)
			if counts[0] != counts[1] {
				t.Errorf("%s + %s import allocates %v objects at n = 48 and %v at n = 960",
					o.name, name, counts[0], counts[1])
			}
			if bytes[1] > bytes[0]+byteSlack {
				t.Errorf("%s + %s import allocates %d bytes at n = 48 and %d at n = 960 (slack %d)",
					o.name, name, bytes[0], bytes[1], byteSlack)
			}
		}
	}
}

// TestImportWorkPRSimDoesNotCopy pins that a PRSim import serves its
// tables out of the snapshot buffer under every opener. Its allocations
// grow with n (a table header per built table), so the size-independence
// check above cannot take it; instead the heap bytes of one ImportPRSim
// must stay below a quarter of the section's entry columns, which a
// copy of Origins and Probs would exceed fourfold.
func TestImportWorkPRSimDoesNotCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are not checked under -race")
	}
	if !castArrays {
		t.Skip("the copy-out branch allocates per array by design")
	}
	path := sizedSnapshot(t, 960)
	mp, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := mp.section(SecPRSim)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodePRSim(payload, mp.graphVersion)
	if err != nil {
		t.Fatal(err)
	}
	columns := uint64(len(p.Origins))*uint64(unsafe.Sizeof(p.Origins[0])) +
		uint64(len(p.Probs))*uint64(unsafe.Sizeof(p.Probs[0]))
	mp.Close()
	imp := func(mp *Mapped) (interface{ Close() error }, error) { return mp.ImportPRSim(mp.Graph()) }
	for _, o := range snapshotOpeners() {
		got := importBytes(t, o.open, path, imp)
		t.Logf("%s + ImportPRSim: %d bytes per import, entry columns %d bytes", o.name, got, columns)
		if got >= columns/4 {
			t.Errorf("%s + ImportPRSim allocates %d bytes per call, want < %d (a quarter of the %d-byte entry columns)",
				o.name, got, columns/4, columns)
		}
	}
}

type importFunc func(*Mapped) (interface{ Close() error }, error)

// importBytes opens path and returns the heap bytes one imp call
// allocates, averaged over five calls. The open is not counted.
func importBytes(t *testing.T, open func(string) (*Mapped, error), path string, imp importFunc) uint64 {
	t.Helper()
	const runs = 5
	mp, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ix, err := imp(mp)
		if err != nil {
			t.Fatal(err)
		}
		ix.Close()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

type snapshotOpener struct {
	name string
	open func(path string) (*Mapped, error)
}

// snapshotOpeners returns Load and OpenMapped under every verify policy.
func snapshotOpeners() []snapshotOpener {
	opens := []snapshotOpener{{"Load", Load}}
	for _, verify := range []VerifyPolicy{VerifyOnLoadSection, VerifyEager, VerifyNone} {
		opens = append(opens, snapshotOpener{"OpenMapped/" + verify.String(), func(path string) (*Mapped, error) {
			return OpenMapped(path, MapOptions{Verify: verify})
		}})
	}
	return opens
}

// sizedSnapshot writes an n-node random graph with SLING, READS and
// PRSim indexes and returns the path.
func sizedSnapshot(t *testing.T, n int) string {
	t.Helper()
	edges, err := gen.ErdosRenyi(n, 4*n, true, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(n, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := sling.Build(g, sling.Options{Seed: 1, DSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewDiGraph(n, true)
	for _, e := range g.Edges() {
		if err := d.AddEdge(e.X, e.Y); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := reads.Build(d, reads.Options{R: 4, MaxLen: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prsim.Build(g, prsim.Options{HubFraction: 0.25, DSamples: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	slP, rdP, prP := sl.Export(), rd.Export(), pr.Export()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("n%d.snap", n))
	if err := Write(path, &Snapshot{Graph: g, Sling: &slP, Reads: &rdP, PRSim: &prP}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedLifecycleRace pins the refcount story under the race
// detector: queries keep running on a mapped index while another
// goroutine closes the store handle, and the pages are only released
// (mapped_bytes gauge back down) when the last index closes.
func TestMappedLifecycleRace(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	before := statMappedBytes.Load()
	mp, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := mp.Graph()
	sl, err := mp.ImportSling(g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 0; u < g.NumNodes(); u++ {
				if _, err := sl.SingleSource(graph.NodeID(u)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := mp.Close(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	// The store handle is gone, the index's retained reference is not:
	// queries must still see valid pages.
	if _, err := sl.SingleSource(0); err != nil {
		t.Fatal(err)
	}
	if got := statMappedBytes.Load(); got == before {
		t.Fatal("mapped_bytes gauge did not rise while the index held the mapping")
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := statMappedBytes.Load(); got != before {
		t.Fatalf("mapped_bytes gauge = %d after the last close, want %d", got, before)
	}
}

// TestMappedVerifyPolicies pins what each policy hashes and when,
// via the crc_deferred/crc_verified counters and a corrupted section.
func TestMappedVerifyPolicies(t *testing.T) {
	path, _ := writeTestSnapshot(t)

	t.Run("lazy hashes once on first import", func(t *testing.T) {
		deferred0, verified0 := statCrcDeferred.Load(), statCrcVerified.Load()
		mp, err := OpenMapped(path, MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mp.Close()
		// Open defers every section but hashes graph and meta to decode
		// them (the graph is needed eagerly for imports).
		if d := statCrcDeferred.Load() - deferred0; d != 5 {
			t.Fatalf("crc_deferred rose by %d at open, want 5", d)
		}
		afterOpen := statCrcVerified.Load()
		if _, err := mp.ImportSling(mp.Graph()); err != nil {
			t.Fatal(err)
		}
		if d := statCrcVerified.Load() - afterOpen; d != 1 {
			t.Fatalf("crc_verified rose by %d on first sling import, want 1", d)
		}
		again := statCrcVerified.Load()
		if _, err := mp.ImportSling(mp.Graph()); err != nil {
			t.Fatal(err)
		}
		if statCrcVerified.Load() != again {
			t.Fatal("second import re-hashed an already verified section")
		}
		if statCrcVerified.Load() == verified0 {
			t.Fatal("lazy policy never hashed anything")
		}
	})

	t.Run("none never hashes", func(t *testing.T) {
		verified0 := statCrcVerified.Load()
		mp, err := OpenMapped(path, MapOptions{Verify: VerifyNone})
		if err != nil {
			t.Fatal(err)
		}
		defer mp.Close()
		if _, err := mp.ImportReads(mp.Graph()); err != nil {
			t.Fatal(err)
		}
		if statCrcVerified.Load() != verified0 {
			t.Fatal("VerifyNone hashed a section")
		}
	})

	t.Run("corrupt section", func(t *testing.T) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, off, length := sectionEntry(t, data, SecSling)
		data[off+length/2] ^= 0x10
		bad := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Eager: refused at open.
		if _, err := OpenMapped(bad, MapOptions{Verify: VerifyEager}); !errors.Is(err, ErrChecksum) {
			t.Fatalf("eager open error = %v, want ErrChecksum", err)
		}
		// Lazy: open succeeds (graph section is intact), the corrupted
		// section is refused exactly when it is first needed.
		mp, err := OpenMapped(bad, MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mp.Close()
		if _, err := mp.ImportSling(mp.Graph()); !errors.Is(err, ErrChecksum) {
			t.Fatalf("lazy sling import error = %v, want ErrChecksum", err)
		}
		if _, err := mp.ImportReads(mp.Graph()); err != nil {
			t.Fatalf("intact reads section refused: %v", err)
		}
	})
}

// TestMappedRefusesWrongGraphAndMissing: the import gates hold on a
// mapping too.
func TestMappedRefusesWrongGraphAndMissing(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	mp, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	other := graph.NewBuilder(24, true).AddEdge(3, 4).MustFreeze()
	if _, err := mp.ImportSling(other); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("ImportSling(other graph) error = %v, want ErrVersionMismatch", err)
	}

	bare, _, _, _ := testSnapshot(t)
	bare.Sling, bare.Reads, bare.PRSim = nil, nil, nil
	barePath := filepath.Join(t.TempDir(), "bare.snap")
	if err := Write(barePath, bare); err != nil {
		t.Fatal(err)
	}
	bmp, err := OpenMapped(barePath, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bmp.Close()
	if _, err := bmp.ImportSling(bmp.Graph()); !errors.Is(err, ErrMissingSection) {
		t.Fatalf("ImportSling on bare snapshot error = %v, want ErrMissingSection", err)
	}
	if bmp.Has(SecSling) || !bmp.Has(SecGraph) {
		t.Fatal("Has() disagrees with the written sections")
	}
}

// TestMappedNoExportedFields: the mapped view types must not expose
// any field a caller could mutate or alias around the refcount; the
// page protection is the backstop, this is the first line.
func TestMappedNoExportedFields(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Mapped{}),
		reflect.TypeOf(mappedSection{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				t.Errorf("%s exports field %s", typ.Name(), f.Name)
			}
		}
	}
}

// BenchmarkLoad and BenchmarkOpenMapped pin the two restart paths side
// by side, allocations included: both run the one decoder, Load over a
// heap copy of the file under VerifyEager, OpenMapped over a mapping
// trusting the bytes.
func BenchmarkLoad(b *testing.B) {
	path := benchSnapshotPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp, err := Load(path)
		if err != nil {
			b.Fatal(err)
		}
		sl, err := mp.ImportSling(mp.Graph())
		if err != nil {
			b.Fatal(err)
		}
		rd, err := mp.ImportReads(mp.Graph())
		if err != nil {
			b.Fatal(err)
		}
		pr, err := mp.ImportPRSim(mp.Graph())
		if err != nil {
			b.Fatal(err)
		}
		sl.Close()
		rd.Close()
		pr.Close()
		mp.Close()
	}
}

func BenchmarkOpenMapped(b *testing.B) {
	path := benchSnapshotPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp, err := OpenMapped(path, MapOptions{Verify: VerifyNone})
		if err != nil {
			b.Fatal(err)
		}
		sl, err := mp.ImportSling(mp.Graph())
		if err != nil {
			b.Fatal(err)
		}
		rd, err := mp.ImportReads(mp.Graph())
		if err != nil {
			b.Fatal(err)
		}
		pr, err := mp.ImportPRSim(mp.Graph())
		if err != nil {
			b.Fatal(err)
		}
		sl.Close()
		rd.Close()
		pr.Close()
		mp.Close()
	}
}

func benchSnapshotPath(b *testing.B) string {
	b.Helper()
	snap, _, _, _ := testSnapshot(b)
	path := filepath.Join(b.TempDir(), "bench.snap")
	if err := Write(path, snap); err != nil {
		b.Fatal(err)
	}
	return path
}
