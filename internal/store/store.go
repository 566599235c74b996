// Package store persists the expensive artifacts of a serving process —
// the frozen graph and the SLING/READS/PRSim precomputed indexes — as a
// single versioned, checksummed binary snapshot, so a restart loads in
// I/O time instead of rebuild time.
//
// File layout (all integers little-endian):
//
//	magic            8 bytes  "CSIMSNAP"
//	format version   u32      3
//	graph version    u64      identity of the snapshotted graph
//	section count    u32
//	section table    count × { name [8]byte NUL-padded,
//	                           offset u64, length u64, crc32 u32 }
//	section payloads byte ranges referenced by the table
//
// Offsets are absolute file offsets and the CRC (IEEE 802.3) covers the
// raw payload bytes of each section, so a loader can verify a section
// before decoding a single field of it. Sections:
//
//	"graph"  the CSR arrays of a frozen graph.Graph (required)
//	"meta"   JSON dataset metadata (required)
//	"sling"  a sling.Flat
//	"reads"  a reads.Flat
//	"prsim"  a prsim.Flat
//
// Each index section is the graph version it was built for, its
// backend's option scalars, then one flat list of the arrays its index
// serves from, in the order of the Flat type's fields. Nothing is
// derived on load and nothing is stored that the index does not read.
//
// The layout is built for zero-copy reads: every section starts at a
// 64-byte-aligned file offset with zero padding between sections, the
// file length is padded to a multiple of 64, and inside a section every
// array's u64 length prefix sits at an 8-aligned section offset (zero
// pad bytes inserted before it), so the element bytes that follow are
// aligned for direct []int32/[]float64 casts.
//
// There is one decoder. OpenMapped runs it over a read-only file
// mapping under a chosen VerifyPolicy; Load runs it over a heap copy of
// the file and Decode over caller bytes, both under VerifyEager. All
// three return a *Mapped handle to import indexes from.
//
// Invariants enforced by the loader:
//
//   - wrong magic, a format version other than 3, truncation, checksum
//     mismatch and a misaligned section offset each fail with a
//     distinct sentinel error (errors.Is);
//   - under VerifyEager a content-derived graph version is recomputed
//     from the decoded CSR arrays (graph.FromCSR) — a snapshot cannot
//     claim an identity its bytes do not hash to;
//   - an index section whose recorded graph version differs from the
//     graph it is imported against is refused with ErrVersionMismatch,
//     so a stale index can never serve scores for a changed graph;
//   - an index section whose options fail their backend's Validate is
//     refused at decode, with the field named.
package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"

	"crashsim/internal/graph"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

// Magic identifies a crashsim snapshot file.
const Magic = "CSIMSNAP"

// FormatVersion is the snapshot format Encode writes and the only one
// the loader reads: the format is versioned precisely so that a stale
// binary fails loudly instead of misdecoding.
const FormatVersion = 3

// sectionAlign is the section placement alignment. 64 covers every
// element width we cast to (8 for float64/uint64) with room to spare
// and keeps section starts cache-line-aligned.
const sectionAlign = 64

// Section names, as written into the section table.
const (
	SecGraph = "graph"
	SecMeta  = "meta"
	SecSling = "sling"
	SecReads = "reads"
	SecPRSim = "prsim"
)

// Typed loader failures. Every way a snapshot can be unusable maps to
// exactly one of these, so callers can log a precise reason and fall
// back to a rebuild.
var (
	// ErrBadMagic: the file is not a crashsim snapshot at all.
	ErrBadMagic = errors.New("store: bad magic (not a crashsim snapshot)")
	// ErrFormatVersion: the snapshot was written by an incompatible
	// format revision.
	ErrFormatVersion = errors.New("store: unsupported snapshot format version")
	// ErrTruncated: the file ends before the bytes the header or
	// section table promised.
	ErrTruncated = errors.New("store: snapshot truncated")
	// ErrChecksum: a section's payload does not hash to its recorded
	// CRC — the bytes rotted or were edited.
	ErrChecksum = errors.New("store: section checksum mismatch")
	// ErrMisaligned: a section offset is not 64-byte aligned, so the
	// loader's typed casts would be undefined — such a file was not
	// produced by this writer — or the bytes handed to Decode do not
	// start 8-aligned in memory.
	ErrMisaligned = errors.New("store: section offset misaligned")
	// ErrMissingSection: a section the caller requires is absent.
	ErrMissingSection = errors.New("store: section missing")
	// ErrVersionMismatch: an index section records a different graph
	// version than the graph it is being attached to.
	ErrVersionMismatch = errors.New("store: graph version mismatch")
)

// Meta is the dataset provenance carried in every snapshot, so an
// operator can tell what a file on disk contains without loading it
// into a server.
type Meta struct {
	// Dataset is the spec the graph came from: an edge-list path or a
	// generator spec like "scale-free@1.0/42".
	Dataset string `json:"dataset,omitempty"`
	// Tool names the writer (e.g. "gendata", "simserver").
	Tool string `json:"tool,omitempty"`
	// CreatedUnix is the write time in Unix seconds.
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Snapshot is what Encode and Write persist: the frozen graph, its
// provenance, and whichever index flats to include. Files are read
// back through Load, Decode or OpenMapped, which return a *Mapped.
type Snapshot struct {
	Graph *graph.Graph
	Meta  Meta
	Sling *sling.Flat
	Reads *reads.Flat
	PRSim *prsim.Flat
}

// SnapshotPath maps a dataset spec and index algorithm to a stable file
// name under dir: a sanitized spec prefix plus a short hash of the full
// spec (so distinct specs that sanitize alike cannot collide), e.g.
// "scale-free_1.0_42-a1b2c3d4e5f6a7b8.sling.snap".
func SnapshotPath(dir, spec, algo string) string {
	h := fnv.New64a()
	h.Write([]byte(spec))
	name := sanitize(spec)
	if len(name) > 40 {
		name = name[:40]
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%016x.%s.snap", name, h.Sum64(), algo))
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-' || r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
