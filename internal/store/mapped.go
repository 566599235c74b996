package store

import (
	"fmt"
	"os"
	"sync/atomic"

	"crashsim/internal/graph"
	"crashsim/internal/mmap"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

// VerifyPolicy selects how much of a snapshot is checked before it is
// trusted. The structural frame (magic, format, section table,
// alignment, padded length) is always validated at open — the policies
// only govern payload hashing and semantic validation, which are the
// parts that scale with file size and would defeat the point of an
// O(1) mapped open.
type VerifyPolicy int

const (
	// VerifyOnLoadSection (the default, zero value) hashes each
	// section's CRC once, lazily, the first time that section is
	// imported. A restart that serves only sling queries never pays for
	// hashing the reads section; a rotted section still cannot serve.
	VerifyOnLoadSection VerifyPolicy = iota
	// VerifyEager checks at open everything that can be checked: every
	// section in the table is hashed (unknown names included), the CSR
	// goes through full validation and content-version recompute, and
	// every present index section is frame-decoded, matched to the
	// graph version and has its options validated. Imports then run the
	// per-entry range checks. Load and Decode always use it, as does
	// `crashsim -verify-index -mmap`.
	VerifyEager
	// VerifyNone skips payload hashing entirely: trusted warm restarts
	// on the machine that wrote the snapshot, where the bytes were
	// CRC'd on the way out and the filesystem is trusted.
	VerifyNone
)

func (p VerifyPolicy) String() string {
	switch p {
	case VerifyOnLoadSection:
		return "on-load-section"
	case VerifyEager:
		return "eager"
	case VerifyNone:
		return "none"
	default:
		return fmt.Sprintf("VerifyPolicy(%d)", int(p))
	}
}

// MapOptions configures OpenMapped.
type MapOptions struct {
	Verify VerifyPolicy
}

// mappedSection pairs a section's byte window with its lazy CRC state.
type mappedSection struct {
	info     sectionInfo
	payload  []byte
	verified atomic.Bool
}

// Mapped is an opened snapshot whose graph CSR and index arrays all
// alias one byte buffer: a read-only file mapping (OpenMapped) or a
// heap buffer (Load, Decode). Over a mapping, opening touches O(1)
// pages and the page cache — shared across every process mapping the
// same file — is the only copy of the data.
//
// Lifetime: each imported index retains the buffer and releases it on
// its Close, so Close-ing the Mapped handle while queries are in
// flight on an imported index is safe — the pages stay mapped until
// the last index releases them. All fields are unexported on purpose:
// the only mutable surface is Close.
type Mapped struct {
	m            *mmap.Mapping
	path         string
	graphVersion uint64
	verify       VerifyPolicy
	secs         map[string]*mappedSection
	graph        *graph.Graph
	meta         Meta
	closed       atomic.Bool
}

// OpenMapped maps the snapshot at path and validates its structural
// frame, plus whatever opts.Verify asks for at open. On big-endian
// hosts the arrays are copied out of the mapping instead of aliasing
// it; the result is the same.
func OpenMapped(path string, opts MapOptions) (*Mapped, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	mapped, err := newMapped(m, path, opts.Verify)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	statMmapOpens.Inc()
	mappedLen := int64(m.Len())
	statMappedBytes.Add(mappedLen)
	m.SetOnUnmap(func() { statMappedBytes.Add(-mappedLen) })
	return mapped, nil
}

// Load reads the snapshot at path onto the heap and opens it under
// VerifyEager. It is OpenMapped's decoder over a private buffer: a
// file truncated after the read cannot fault a later query, which a
// file mapping cannot promise.
func Load(path string) (*Mapped, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mp, err := newMapped(mmap.FromBytes(data), path, VerifyEager)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return mp, nil
}

// Decode opens an in-memory snapshot image under VerifyEager. The
// handle and every index imported from it alias data, which must not
// be modified afterwards and must start 8-aligned (every Go heap
// allocation of 8 bytes or more does); misaligned bytes fail with
// ErrMisaligned. On any failure the typed error says why and no
// handle is returned.
func Decode(data []byte) (*Mapped, error) {
	return newMapped(mmap.FromBytes(data), "", VerifyEager)
}

func newMapped(m *mmap.Mapping, path string, verify VerifyPolicy) (*Mapped, error) {
	data := m.Bytes()
	fi, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	mp := &Mapped{
		m:            m,
		path:         path,
		graphVersion: fi.graphVersion,
		verify:       verify,
		secs:         make(map[string]*mappedSection, len(fi.sections)),
	}
	for _, sec := range fi.sections {
		mp.secs[sec.name] = &mappedSection{info: sec, payload: data[sec.off : sec.off+sec.length]}
	}
	if verify == VerifyEager {
		// Hash the table, not the name map: unknown and repeated names
		// are checked too.
		for _, sec := range fi.sections {
			if err := verifySectionCRC(sec, data[sec.off:sec.off+sec.length]); err != nil {
				return nil, err
			}
			statCrcVerified.Inc()
		}
		for _, ms := range mp.secs {
			ms.verified.Store(true)
		}
	} else {
		statCrcDeferred.Add(uint64(len(mp.secs)))
	}
	gp, err := mp.section(SecGraph)
	if err != nil {
		return nil, err
	}
	// Trusting policies adopt the CSR arrays with shape checks only; the
	// eager policy runs FromCSR's full validation and content-version
	// recompute.
	if mp.graph, err = decodeGraph(gp, fi.graphVersion, verify != VerifyEager); err != nil {
		return nil, err
	}
	if ms := mp.secs[SecMeta]; ms != nil {
		if _, err := mp.section(SecMeta); err != nil {
			return nil, err
		}
		if err := decodeMeta(ms.payload, &mp.meta); err != nil {
			return nil, err
		}
	}
	if verify == VerifyEager {
		if err := mp.checkIndexFrames(); err != nil {
			return nil, err
		}
	}
	return mp, nil
}

// checkIndexFrames frame-decodes every present index section, so a
// malformed section, one built for another graph or one carrying
// out-of-range options fails the open rather than a later import. The
// decoded forms are dropped: imports decode again, which costs shape
// checks over aliased arrays.
func (mp *Mapped) checkIndexFrames() error {
	if ms := mp.secs[SecSling]; ms != nil {
		if _, err := decodeSling(ms.payload, mp.graphVersion); err != nil {
			return err
		}
	}
	if ms := mp.secs[SecReads]; ms != nil {
		if _, err := decodeReads(ms.payload, mp.graphVersion); err != nil {
			return err
		}
	}
	if ms := mp.secs[SecPRSim]; ms != nil {
		if _, err := decodePRSim(ms.payload, mp.graphVersion); err != nil {
			return err
		}
	}
	return nil
}

func (mp *Mapped) checkCRC(ms *mappedSection) error {
	if err := verifySectionCRC(ms.info, ms.payload); err != nil {
		return err
	}
	ms.verified.Store(true)
	statCrcVerified.Inc()
	return nil
}

// section returns a section's payload window after applying the CRC
// policy: eager sections were hashed at open, lazy sections hash here
// exactly once, VerifyNone never hashes.
func (mp *Mapped) section(name string) ([]byte, error) {
	ms := mp.secs[name]
	if ms == nil {
		return nil, fmt.Errorf("%w: %s", ErrMissingSection, name)
	}
	if mp.verify != VerifyNone && !ms.verified.Load() {
		if err := mp.checkCRC(ms); err != nil {
			return nil, err
		}
	}
	return ms.payload, nil
}

// Graph returns the snapshot's graph, its CSR arrays aliasing the
// buffer. It stays valid while the Mapped handle or any index
// imported from it is open.
func (mp *Mapped) Graph() *graph.Graph { return mp.graph }

// Meta returns the snapshot's provenance record.
func (mp *Mapped) Meta() Meta { return mp.meta }

// GraphVersion returns the snapshotted graph's identity.
func (mp *Mapped) GraphVersion() uint64 { return mp.graphVersion }

// Has reports whether the snapshot carries the named section.
func (mp *Mapped) Has(name string) bool { return mp.secs[name] != nil }

// MappedBytes returns the size of the underlying buffer: the file
// mapping, or the heap copy for Load and Decode.
func (mp *Mapped) MappedBytes() int { return mp.m.Len() }

// Path returns the snapshot file's path ("" for Decode).
func (mp *Mapped) Path() string { return mp.path }

// retainFor pins the buffer for the lifetime of an imported index.
func (mp *Mapped) retainFor(setRelease func(func() error)) {
	r := mp.m.Retain()
	setRelease(r.Close)
}

// ImportSling binds the snapshot's SLING section to g as an index
// serving straight from the buffer: the distribution columns and the
// precompiled inverted index alias the file bytes, so the import cost
// is shape checks, not array builds.
func (mp *Mapped) ImportSling(g *graph.Graph) (*sling.Index, error) {
	return importIndex(mp, g, SecSling, decodeSling, sling.ImportFlat)
}

// ImportReads binds the snapshot's READS section to g, walks and
// inverted runs aliasing the buffer. The first mutation applied to
// the returned index promotes it to heap form (copy-on-write); until
// then it is read-only.
func (mp *Mapped) ImportReads(g *graph.Graph) (*reads.Index, error) {
	return importIndex(mp, g, SecReads, decodeReads, reads.ImportFlat)
}

// ImportPRSim binds the snapshot's PRSim section to g. The tables
// alias the buffer; lazily filled tail tables land on the heap beside
// them. The loaded index carries every table the exporting process had
// published — eager hubs plus warm tail caches.
func (mp *Mapped) ImportPRSim(g *graph.Graph) (*prsim.Index, error) {
	return importIndex(mp, g, SecPRSim, decodePRSim, prsim.ImportFlat)
}

// importIndex is the one import path behind ImportSling, ImportReads
// and ImportPRSim: gate on the graph version, apply the section's CRC
// policy, decode the section into its backend's flat form and hand it
// to the backend's ImportFlat — with the per-entry scan only under
// VerifyEager. The returned index holds a buffer reference released by
// its Close.
func importIndex[F any, I interface{ SetRelease(func() error) }](mp *Mapped, g *graph.Graph, sec string,
	decode func([]byte, uint64) (*F, error), importFlat func(*graph.Graph, F, bool) (I, error)) (I, error) {
	var none I
	if err := mp.checkGraph(g, sec); err != nil {
		return none, err
	}
	payload, err := mp.section(sec)
	if err != nil {
		return none, err
	}
	f, err := decode(payload, mp.graphVersion)
	if err != nil {
		return none, err
	}
	ix, err := importFlat(g, *f, mp.verify == VerifyEager)
	if err != nil {
		return none, err
	}
	mp.retainFor(ix.SetRelease)
	return ix, nil
}

func (mp *Mapped) checkGraph(g *graph.Graph, sec string) error {
	if mp.secs[sec] == nil {
		return fmt.Errorf("%w: %s", ErrMissingSection, sec)
	}
	if g.Version() != mp.graphVersion {
		return fmt.Errorf("%w: snapshot graph %#x, target graph %#x",
			ErrVersionMismatch, mp.graphVersion, g.Version())
	}
	return nil
}

// Close releases the handle's buffer reference. Idempotent. Indexes
// imported from this handle keep the pages mapped until their own
// Close; the Graph is valid as long as any of them is.
func (mp *Mapped) Close() error {
	if !mp.closed.CompareAndSwap(false, true) {
		return nil
	}
	return mp.m.Close()
}
