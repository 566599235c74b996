package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"crashsim/internal/graph"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

// sectionHeaderSize is the on-disk size of one section-table entry:
// name [8]byte + offset u64 + length u64 + crc u32.
const sectionHeaderSize = 8 + 8 + 8 + 4

// headerSize is the fixed prefix before the section table: magic +
// format version + graph version + section count.
const headerSize = 8 + 4 + 8 + 4

// alignUp rounds n up to the next multiple of a (a power of two).
func alignUp(n, a int) int { return (n + a - 1) &^ (a - 1) }

// enc is the little-endian section writer. Every array emits zero pad
// bytes before its u64 length prefix so the prefix — and therefore the
// element bytes after it — land on an 8-aligned section offset.
// Section starts are 64-aligned in the file, so section-relative
// alignment is file alignment is memory alignment once loaded.
type enc struct {
	buf bytes.Buffer
}

func (e *enc) u8(v uint8) { e.buf.WriteByte(v) }

func (e *enc) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}

func (e *enc) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}

func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

// align8 pads to the next 8-aligned offset.
func (e *enc) align8() {
	var zero [8]byte
	if pad := alignUp(e.buf.Len(), 8) - e.buf.Len(); pad > 0 {
		e.buf.Write(zero[:pad])
	}
}

func (e *enc) i32s(vs []int32) {
	e.align8()
	e.u64(uint64(len(vs)))
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		e.buf.Write(b[:])
	}
}

func (e *enc) nodes(vs []graph.NodeID) { e.i32s(vs) }

func (e *enc) f64s(vs []float64) {
	e.align8()
	e.u64(uint64(len(vs)))
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		e.buf.Write(b[:])
	}
}

func encodeGraph(g *graph.Graph) []byte {
	inOff, inAdj := g.InCSR()
	outOff, outAdj := g.OutCSR()
	var e enc
	e.u64(uint64(g.NumNodes()))
	if g.Directed() {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.i32s(inOff)
	e.nodes(inAdj)
	e.i32s(outOff)
	e.nodes(outAdj)
	return e.buf.Bytes()
}

func encodeSling(graphVersion uint64, f *sling.Flat) []byte {
	var e enc
	e.u64(graphVersion)
	e.f64(f.Opt.C)
	e.f64(f.Opt.Eps)
	e.u32(uint32(f.Opt.Lmax))
	e.f64(f.Opt.Prune)
	e.u32(uint32(f.Opt.DSamples))
	e.u64(f.Opt.Seed)
	e.i32s(f.DistOff)
	e.i32s(f.Steps)
	e.nodes(f.Nodes)
	e.f64s(f.Probs)
	e.f64s(f.D)
	e.i32s(f.InvOff)
	e.nodes(f.InvOrigins)
	e.f64s(f.InvProbs)
	return e.buf.Bytes()
}

func encodeReads(graphVersion uint64, f *reads.Flat) []byte {
	var e enc
	e.u64(graphVersion)
	e.f64(f.Opt.C)
	e.u32(uint32(f.Opt.R))
	e.u32(uint32(f.Opt.MaxLen))
	e.u32(uint32(f.Opt.RQ))
	e.u64(f.Opt.Seed)
	e.i32s(f.WalkOff)
	e.nodes(f.Nodes)
	e.i32s(f.RunOff)
	e.nodes(f.InvNodes)
	e.i32s(f.ListOff)
	e.nodes(f.InvOrigins)
	return e.buf.Bytes()
}

func encodePRSim(graphVersion uint64, p *prsim.Flat) []byte {
	var e enc
	e.u64(graphVersion)
	e.f64(p.Opt.C)
	e.f64(p.Opt.Eps)
	e.f64(p.Opt.Delta)
	e.f64(p.Opt.HubFraction)
	e.u32(uint32(p.Opt.Iterations))
	e.u32(uint32(p.Opt.MaxDepth))
	e.f64(p.Opt.Prune)
	e.u32(uint32(p.Opt.DSamples))
	e.u64(p.Opt.Seed)
	e.i32s(p.TableLevels)
	e.i32s(p.LevelCounts)
	e.nodes(p.Origins)
	e.f64s(p.Probs)
	e.f64s(p.D)
	return e.buf.Bytes()
}

// Encode serializes a snapshot in format v3. The graph is required;
// index sections are written only if their flats are set.
func Encode(s *Snapshot) ([]byte, error) {
	if s == nil || s.Graph == nil {
		return nil, fmt.Errorf("store: encode: snapshot has no graph")
	}
	type section struct {
		name    string
		payload []byte
	}
	metaJSON, err := json.Marshal(s.Meta)
	if err != nil {
		return nil, fmt.Errorf("store: encode: meta: %w", err)
	}
	gv := s.Graph.Version()
	sections := []section{
		{SecGraph, encodeGraph(s.Graph)},
		{SecMeta, metaJSON},
	}
	if s.Sling != nil {
		sections = append(sections, section{SecSling, encodeSling(gv, s.Sling)})
	}
	if s.Reads != nil {
		sections = append(sections, section{SecReads, encodeReads(gv, s.Reads)})
	}
	if s.PRSim != nil {
		sections = append(sections, section{SecPRSim, encodePRSim(gv, s.PRSim)})
	}

	var e enc
	e.buf.WriteString(Magic)
	e.u32(FormatVersion)
	e.u64(gv)
	e.u32(uint32(len(sections)))
	off := alignUp(headerSize+len(sections)*sectionHeaderSize, sectionAlign)
	for _, sec := range sections {
		var name [8]byte
		copy(name[:], sec.name)
		e.buf.Write(name[:])
		e.u64(uint64(off))
		e.u64(uint64(len(sec.payload)))
		e.u32(crc32.ChecksumIEEE(sec.payload))
		off = alignUp(off+len(sec.payload), sectionAlign)
	}
	pad := make([]byte, sectionAlign)
	e.buf.Write(pad[:alignUp(e.buf.Len(), sectionAlign)-e.buf.Len()])
	for _, sec := range sections {
		e.buf.Write(sec.payload)
		e.buf.Write(pad[:alignUp(e.buf.Len(), sectionAlign)-e.buf.Len()])
	}
	return e.buf.Bytes(), nil
}

// Write encodes the snapshot and writes it to path atomically (temp
// file + rename), so a crash mid-write never leaves a half-snapshot
// that a later strict load would have to reject.
func Write(path string, s *Snapshot) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write: %w", err)
	}
	return nil
}
