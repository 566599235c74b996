package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"

	"crashsim/internal/graph"
	"crashsim/internal/mmap"
	"crashsim/internal/par"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

// dec is a bounds-checked little-endian reader over one section's
// payload. Array reads check the remaining byte count before
// allocating, so a hostile length field cannot force a huge allocation.
// Every array's u64 length prefix sits at an 8-aligned section offset
// (the pad bytes before it are skipped), so its elements are 8-aligned
// in memory whenever the section is: sections start 64-aligned in the
// file, and both a file mapping and a Go heap buffer start 8-aligned.
type dec struct {
	b   []byte
	off int
	err error
}

// castArrays selects how dec reads arrays: typed casts aliasing the
// payload where the host byte order is the file's (little-endian), a
// copy-out loop elsewhere. It is the platform's answer, not an option;
// it is a variable only so a test can run the copy-out branch on a
// little-endian host.
var castArrays = mmap.CastsSupported()

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: reading %s at offset %d", ErrTruncated, what, d.off)
	}
}

func (d *dec) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u8(what string) uint8 {
	s := d.take(1, what)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *dec) u32(what string) uint32 {
	s := d.take(4, what)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *dec) u64(what string) uint64 {
	s := d.take(8, what)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *dec) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

// align8 consumes the pad bytes before an array. The pads are
// CRC-covered with everything else, so their content is not re-checked
// here.
func (d *dec) align8(what string) {
	if pad := alignUp(d.off, 8) - d.off; pad > 0 {
		d.take(pad, what)
	}
}

func (d *dec) arrayLen(width int, what string) int {
	d.align8(what)
	n := d.u64(what)
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off)/uint64(width) {
		d.fail(what)
		return 0
	}
	return int(n)
}

func (d *dec) i32s(what string) []int32 {
	n := d.arrayLen(4, what)
	b := d.take(n*4, what)
	if d.err != nil {
		return nil
	}
	if castArrays {
		vs, err := mmap.Int32s(b)
		d.castFailed(what, err)
		return vs
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}

// nodes is i32s under graph.NodeID's name: NodeID is an int32 alias,
// so the cast hands back the same slice type either way.
func (d *dec) nodes(what string) []graph.NodeID { return d.i32s(what) }

func (d *dec) f64s(what string) []float64 {
	n := d.arrayLen(8, what)
	b := d.take(n*8, what)
	if d.err != nil {
		return nil
	}
	if castArrays {
		vs, err := mmap.Float64s(b)
		d.castFailed(what, err)
		return vs
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vs
}

// castFailed records a refused cast. The length is exact by
// construction, so the only way a cast fails is memory misalignment:
// bytes handed to Decode that do not start 8-aligned.
func (d *dec) castFailed(what string, err error) {
	if err != nil {
		d.err = fmt.Errorf("%w: %s: %v", ErrMisaligned, what, err)
	}
}

func (d *dec) done(sec string) error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("store: section %q has %d trailing bytes", sec, len(d.b)-d.off)
	}
	return nil
}

// decodeGraph reads the CSR section. With adopt set (a trusting
// policy) only shape checks run — AdoptCSR — because the section CRC
// vouches for the bytes; otherwise FromCSR performs full CSR
// validation plus content-version recomputation.
func decodeGraph(payload []byte, version uint64, adopt bool) (*graph.Graph, error) {
	d := &dec{b: payload}
	n := d.u64("graph node count")
	directed := d.u8("graph directedness") != 0
	inOff := d.i32s("graph in-offsets")
	inAdj := d.nodes("graph in-adjacency")
	outOff := d.i32s("graph out-offsets")
	outAdj := d.nodes("graph out-adjacency")
	if err := d.done(SecGraph); err != nil {
		return nil, err
	}
	if n > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("store: graph section claims %d nodes", n)
	}
	var g *graph.Graph
	var err error
	if adopt {
		g, err = graph.AdoptCSR(int(n), directed, version, inOff, inAdj, outOff, outAdj)
	} else {
		g, err = graph.FromCSR(int(n), directed, version, inOff, inAdj, outOff, outAdj)
	}
	if err != nil {
		return nil, fmt.Errorf("store: graph section: %w", err)
	}
	return g, nil
}

// indexDone finishes an index section: the reader must have consumed
// it exactly, the graph version it records must be the snapshot's, and
// the options it records must pass their backend's Validate, so a
// forged option fails the decode with the field named.
func (d *dec) indexDone(sec string, gv, graphVersion uint64, validate func() error) error {
	if err := d.done(sec); err != nil {
		return err
	}
	if gv != graphVersion {
		return fmt.Errorf("%w: %s section built for graph %#x, snapshot graph is %#x",
			ErrVersionMismatch, sec, gv, graphVersion)
	}
	if err := validate(); err != nil {
		return fmt.Errorf("store: %s section: %w", sec, err)
	}
	return nil
}

// decodeSling reads a sling section: the option scalars, then the
// arrays of a sling.Flat, every one aliasing the payload, so the
// returned Flat serves queries without building anything.
func decodeSling(payload []byte, graphVersion uint64) (*sling.Flat, error) {
	d := &dec{b: payload}
	var f sling.Flat
	gv := d.u64("sling graph version")
	f.Opt.C = d.f64("sling C")
	f.Opt.Eps = d.f64("sling Eps")
	f.Opt.Lmax = int(d.u32("sling Lmax"))
	f.Opt.Prune = d.f64("sling Prune")
	f.Opt.DSamples = int(d.u32("sling DSamples"))
	f.Opt.Seed = d.u64("sling Seed")
	f.DistOff = d.i32s("sling dist offsets")
	f.Steps = d.i32s("sling steps")
	f.Nodes = d.nodes("sling nodes")
	f.Probs = d.f64s("sling probs")
	f.D = d.f64s("sling d values")
	f.InvOff = d.i32s("sling inv offsets")
	f.InvOrigins = d.nodes("sling inv origins")
	f.InvProbs = d.f64s("sling inv probs")
	if err := d.indexDone(SecSling, gv, graphVersion, f.Opt.Validate); err != nil {
		return nil, err
	}
	return &f, nil
}

// decodeReads reads a reads section: the option scalars, then the
// arrays of a reads.Flat aliasing the payload.
func decodeReads(payload []byte, graphVersion uint64) (*reads.Flat, error) {
	d := &dec{b: payload}
	var f reads.Flat
	gv := d.u64("reads graph version")
	f.Opt.C = d.f64("reads C")
	f.Opt.R = int(d.u32("reads R"))
	f.Opt.MaxLen = int(d.u32("reads MaxLen"))
	f.Opt.RQ = int(d.u32("reads RQ"))
	f.Opt.Seed = d.u64("reads Seed")
	f.WalkOff = d.i32s("reads walk offsets")
	f.Nodes = d.nodes("reads walk nodes")
	f.RunOff = d.i32s("reads run offsets")
	f.InvNodes = d.nodes("reads inv nodes")
	f.ListOff = d.i32s("reads list offsets")
	f.InvOrigins = d.nodes("reads inv origins")
	if err := d.indexDone(SecReads, gv, graphVersion, f.Opt.Validate); err != nil {
		return nil, err
	}
	return &f, nil
}

// decodePRSim reads a prsim section: the option scalars, then the
// arrays of a prsim.Flat aliasing the payload.
func decodePRSim(payload []byte, graphVersion uint64) (*prsim.Flat, error) {
	d := &dec{b: payload}
	var f prsim.Flat
	gv := d.u64("prsim graph version")
	f.Opt.C = d.f64("prsim C")
	f.Opt.Eps = d.f64("prsim Eps")
	f.Opt.Delta = d.f64("prsim Delta")
	f.Opt.HubFraction = d.f64("prsim HubFraction")
	f.Opt.Iterations = int(d.u32("prsim Iterations"))
	f.Opt.MaxDepth = int(d.u32("prsim MaxDepth"))
	f.Opt.Prune = d.f64("prsim Prune")
	f.Opt.DSamples = int(d.u32("prsim DSamples"))
	f.Opt.Seed = d.u64("prsim Seed")
	f.TableLevels = d.i32s("prsim table levels")
	f.LevelCounts = d.i32s("prsim level counts")
	f.Origins = d.nodes("prsim origins")
	f.Probs = d.f64s("prsim probs")
	f.D = d.f64s("prsim d values")
	if err := d.indexDone(SecPRSim, gv, graphVersion, f.Opt.Validate); err != nil {
		return nil, err
	}
	return &f, nil
}

// sectionInfo is one parsed section-table entry; the payload bounds
// have been checked against the file.
type sectionInfo struct {
	name        string
	off, length int
	crc         uint32
}

// fileInfo is the structurally validated frame of a snapshot image:
// header fields plus the section table. CRCs are recorded, not yet
// checked — newMapped checks them per its policy.
type fileInfo struct {
	graphVersion uint64
	sections     []sectionInfo
}

// parseHeader validates everything about a snapshot image that can be
// checked without hashing payloads: magic, format version, section
// table bounds, section alignment and the exact padded file length.
// Each failure maps to its sentinel.
func parseHeader(data []byte) (*fileInfo, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte file is smaller than the header", ErrTruncated, len(data))
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, string(data[:8]))
	}
	if format := binary.LittleEndian.Uint32(data[8:12]); format != FormatVersion {
		return nil, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrFormatVersion, format, FormatVersion)
	}
	fi := &fileInfo{graphVersion: binary.LittleEndian.Uint64(data[12:20])}
	// Bound the count before converting it: int(count) of a u32 is
	// negative on 32-bit platforms from 2^31 up.
	count := uint64(binary.LittleEndian.Uint32(data[20:24]))
	if count > uint64(len(data)-headerSize)/sectionHeaderSize {
		return nil, fmt.Errorf("%w: section table (%d entries) exceeds file", ErrTruncated, count)
	}
	tableEnd := headerSize + int(count)*sectionHeaderSize
	end := tableEnd
	fi.sections = make([]sectionInfo, 0, count)
	for i := 0; i < int(count); i++ {
		entry := data[headerSize+i*sectionHeaderSize:]
		name := string(bytes.TrimRight(entry[:8], "\x00"))
		off := binary.LittleEndian.Uint64(entry[8:16])
		length := binary.LittleEndian.Uint64(entry[16:24])
		sum := binary.LittleEndian.Uint32(entry[24:28])
		if off < uint64(tableEnd) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %q spans [%d, %d) in a %d-byte file",
				ErrTruncated, name, off, off+length, len(data))
		}
		if off%sectionAlign != 0 {
			return nil, fmt.Errorf("%w: section %q starts at offset %d (not %d-aligned)",
				ErrMisaligned, name, off, sectionAlign)
		}
		if e := int(off + length); e > end {
			end = e
		}
		fi.sections = append(fi.sections, sectionInfo{name: name, off: int(off), length: int(length), crc: sum})
	}
	if len(data) != alignUp(end, sectionAlign) {
		return nil, fmt.Errorf("%w: %d-byte file, sections end at %d so the file must be %d bytes",
			ErrTruncated, len(data), end, alignUp(end, sectionAlign))
	}
	return fi, nil
}

// crcChunk is the length of the pieces verifySectionCRC hashes in
// parallel. A section up to this long is one piece, hashed inline with
// no allocation.
const crcChunk = 4 << 20

// verifySectionCRC hashes a section payload against its table entry,
// crcChunk bytes per piece on every core.
func verifySectionCRC(info sectionInfo, payload []byte) error {
	if got := chunkedCRC(payload, crcChunk, runtime.GOMAXPROCS(0)); got != info.crc {
		return fmt.Errorf("%w: section %q crc %08x, recorded %08x", ErrChecksum, info.name, got, info.crc)
	}
	return nil
}

// chunkedCRC returns crc32.ChecksumIEEE(b), hashing b in pieces of
// chunk bytes across up to workers goroutines and folding the piece
// CRCs in order. The first piece takes the remainder of len(b)/chunk
// (a whole chunk if there is none), so every piece folded onto the
// running value is chunk bytes long and one shift operator, computed
// once, serves every fold. One piece, or one worker, hashes b inline:
// folding gains nothing without a second core.
func chunkedCRC(b []byte, chunk, workers int) uint32 {
	if len(b) <= chunk || workers <= 1 {
		return crc32.ChecksumIEEE(b)
	}
	head := len(b) % chunk
	if head == 0 {
		head = chunk
	}
	sums := make([]uint32, 1+(len(b)-head)/chunk)
	_ = par.ForEachCtx(context.Background(), len(sums), workers, func(i int) {
		end := head + i*chunk
		sums[i] = crc32.ChecksumIEEE(b[max(0, end-chunk):end])
	})
	shift := zerosOperator(chunk)
	sum := sums[0]
	for _, s := range sums[1:] {
		sum = shift.apply(sum) ^ s
	}
	return sum
}

// gf2Matrix is a linear map on 32-bit CRC registers over GF(2):
// column i is the image of bit i.
type gf2Matrix [32]uint32

func (m *gf2Matrix) apply(v uint32) uint32 {
	var r uint32
	for i := 0; v != 0; i, v = i+1, v>>1 {
		if v&1 != 0 {
			r ^= m[i]
		}
	}
	return r
}

// compose returns m∘o, the map that applies o and then m.
func (m *gf2Matrix) compose(o *gf2Matrix) gf2Matrix {
	var r gf2Matrix
	for i := range r {
		r[i] = m.apply(o[i])
	}
	return r
}

// zerosOperator returns the map that advances an IEEE CRC-32 over n
// zero bytes. It is what combines two CRCs:
// crc(a‖b) = zerosOperator(len(b)).apply(crc(a)) ^ crc(b), because the
// CRC's pre- and post-inversion cancel between the two terms.
func zerosOperator(n int) gf2Matrix {
	// One zero bit shifts the reflected register right and folds the
	// bit shifted out back in through the polynomial.
	var bit gf2Matrix
	bit[0] = crc32.IEEE
	for i := 1; i < 32; i++ {
		bit[i] = 1 << (i - 1)
	}
	var r gf2Matrix
	for i := range r {
		r[i] = 1 << i
	}
	for e := uint64(n) * 8; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = r.compose(&bit)
		}
		bit = bit.compose(&bit)
	}
	return r
}

func decodeMeta(payload []byte, m *Meta) error {
	if err := json.Unmarshal(payload, m); err != nil {
		return fmt.Errorf("store: meta section: %w", err)
	}
	return nil
}
