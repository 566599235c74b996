package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crashsim/internal/graph"
)

// TestChunkedCRC: at every length around the chunk boundaries, for a
// small chunk and for crcChunk itself, and at one and at several
// workers, the chunked CRC is crc32.ChecksumIEEE's.
func TestChunkedCRC(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, chunk := range []int{64, crcChunk} {
		buf := make([]byte, 3*chunk+17)
		for i := range buf {
			buf[i] = byte(r.Uint32())
		}
		for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk, 3*chunk + 17} {
			want := crc32.ChecksumIEEE(buf[:n])
			for _, workers := range []int{1, 2, 3} {
				if got := chunkedCRC(buf[:n], chunk, workers); got != want {
					t.Errorf("chunk %d, length %d, %d workers: %08x, want %08x", chunk, n, workers, got, want)
				}
			}
		}
	}
}

// FuzzSectionCRC: any bytes, any chunk length and worker count give
// crc32.ChecksumIEEE's value.
func FuzzSectionCRC(f *testing.F) {
	f.Add([]byte("snapshot section payload"), uint16(5), uint8(2))
	f.Add(make([]byte, 1000), uint16(64), uint8(4))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, workers uint8) {
		c := int(chunk) + 1
		if got, want := chunkedCRC(data, c, int(workers%8)), crc32.ChecksumIEEE(data); got != want {
			t.Fatalf("%d bytes, chunk %d, %d workers: %08x, want %08x", len(data), c, workers%8, got, want)
		}
	})
}

// multiChunkGraph returns a directed ring lattice whose graph section
// spans crcChunk-byte pieces: every node points at its next 12.
func multiChunkGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	const n, d = 1 << 17, 12
	edges := make([]graph.Edge, 0, n*d)
	for v := 0; v < n; v++ {
		for k := 1; k <= d; k++ {
			edges = append(edges, graph.Edge{X: graph.NodeID(v), Y: graph.NodeID((v + k) % n)})
		}
	}
	g, err := graph.NewBuilder(n, true).AddEdges(edges).Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestMultiChunkCorruption: one flipped bit in the first, a middle or
// the last piece of a graph section several pieces long is refused by
// Load and by OpenMapped under both hashing policies, with the error
// text of a serial hash of the corrupted payload.
func TestMultiChunkCorruption(t *testing.T) {
	pristine := encodeOK(t, &Snapshot{Graph: multiChunkGraph(t)})
	entry, off, length := sectionEntry(t, pristine, SecGraph)
	if length < 3*crcChunk {
		t.Fatalf("graph section is %d bytes, want at least three %d-byte pieces", length, crcChunk)
	}
	recorded := crc32.ChecksumIEEE(pristine[off : off+length])
	if got := binary.LittleEndian.Uint32(pristine[entry+24:]); got != recorded {
		t.Fatalf("recorded crc %08x, serial hash %08x", got, recorded)
	}
	head := length % crcChunk
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		at   int // byte offset within the section
	}{
		{"first piece", head / 2},
		{"middle piece", head + crcChunk + crcChunk/2},
		{"last piece", length - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := append([]byte(nil), pristine...)
			data[off+c.at] ^= 0x04
			want := fmt.Sprintf("%v: section %q crc %08x, recorded %08x",
				ErrChecksum, SecGraph, crc32.ChecksumIEEE(data[off:off+length]), recorded)
			path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".snap")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			opens := map[string]func() (*Mapped, error){
				"Load": func() (*Mapped, error) { return Load(path) },
			}
			for _, verify := range []VerifyPolicy{VerifyOnLoadSection, VerifyEager} {
				opens["OpenMapped/"+verify.String()] = func() (*Mapped, error) {
					return OpenMapped(path, MapOptions{Verify: verify})
				}
			}
			for name, open := range opens {
				mp, err := open()
				if mp != nil {
					mp.Close()
					t.Fatalf("%s returned a handle", name)
				}
				if !errors.Is(err, ErrChecksum) || !strings.HasSuffix(err.Error(), want) {
					t.Errorf("%s error = %v, want ErrChecksum ending %q", name, err, want)
				}
			}
		})
	}
}
