// Package mmap wraps a read-only memory mapping of a file behind an
// explicit reference count, so higher layers can hand out borrowed
// views of the mapped bytes (typed slices that alias the mapping)
// without tying the mapping's lifetime to any single owner.
//
// The mapping is created PROT_READ + MAP_SHARED: the pages are backed
// by the kernel page cache, never dirtied, and therefore shared — N
// processes mapping the same snapshot file consume one physical copy,
// and a warm restart touches no page until a query first reads it.
// Writes through any view fault at the hardware level; the exported
// API never hands out a path to mutate the mapping on purpose (view
// types keep their slices in non-exported fields), so the page
// protection is a backstop, not the first line of defense.
//
// Lifecycle: Open (or FromBytes, for bytes already on the heap)
// returns a Mapping holding one reference. Every
// borrowed view that must outlive the opener calls Retain and pairs it
// with exactly one Close. The underlying munmap happens when the last
// reference drops, so closing the opener while borrowed views are
// still querying is safe — the pages stay mapped until those views
// release them.
package mmap

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Mapping is a refcounted read-only view of one file's bytes.
type Mapping struct {
	data []byte
	refs atomic.Int64
	// onUnmap, if set, runs exactly once right before the bytes are
	// released (obs accounting hooks).
	onUnmap func()
	// heap is true when the bytes live on the Go heap instead of in a
	// file mapping (FromBytes); Close then just drops the slice.
	heap bool
}

// FromBytes wraps heap bytes in a Mapping with the same refcount
// lifecycle as a file mapping, holding one reference. The bytes are
// not copied: the caller must not write them while any reference is
// live. Casts over them work as over a mapping, because Go heap
// allocations are at least 8-aligned.
func FromBytes(data []byte) *Mapping {
	m := &Mapping{data: data, heap: true}
	m.refs.Store(1)
	return m
}

// Open maps the file at path read-only. The returned Mapping holds one
// reference; Close releases it.
func Open(path string) (*Mapping, error) {
	m, err := openPlatform(path)
	if err != nil {
		return nil, err
	}
	m.refs.Store(1)
	return m, nil
}

// Bytes returns the mapped bytes. The slice aliases the mapping and is
// valid until the last reference is closed; callers must treat it as
// read-only (writing faults — the pages are PROT_READ).
func (m *Mapping) Bytes() []byte { return m.data }

// Len returns the mapped length in bytes.
func (m *Mapping) Len() int { return len(m.data) }

// SetOnUnmap registers a hook run once, just before the bytes are
// released. Call it before any Retain/Close races can fire.
func (m *Mapping) SetOnUnmap(f func()) { m.onUnmap = f }

// Retain adds a reference. Every Retain must be paired with exactly
// one Close. Retaining an already-released mapping panics — that is a
// use-after-close bug in the caller, not a recoverable condition.
func (m *Mapping) Retain() *Mapping {
	if m.refs.Add(1) <= 1 {
		panic("mmap: Retain on a released mapping")
	}
	return m
}

// Close drops one reference; the last drop unmaps the pages. Borrowed
// views that retained the mapping keep it valid past the opener's
// Close — this is what makes "close the store while queries are in
// flight" safe.
func (m *Mapping) Close() error {
	n := m.refs.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("mmap: Close without matching Open/Retain")
	}
	if m.onUnmap != nil {
		m.onUnmap()
	}
	data := m.data
	m.data = nil
	if m.heap {
		return nil
	}
	return unmapPlatform(data)
}

// nativeLittleEndian reports whether this machine stores integers
// little-endian — the snapshot byte order. The typed casts below alias
// raw file bytes as integer/float slices, which is only correct when
// the two orders agree; on a big-endian machine callers must copy the
// elements out instead.
var nativeLittleEndian = func() bool {
	var buf [2]byte
	*(*uint16)(unsafe.Pointer(&buf[0])) = 0x0102
	return binary.LittleEndian.Uint16(buf[:]) == 0x0102
}()

// CastsSupported reports whether zero-copy typed casts work on this
// machine (little-endian byte order). Where they do not, callers
// decode by copying the elements out instead.
func CastsSupported() bool { return nativeLittleEndian }

// castErr explains a failed cast precisely: misalignment and length
// mismatches are format bugs worth naming.
func castErr(what string, width int, b []byte) error {
	if !nativeLittleEndian {
		return fmt.Errorf("mmap: %s cast unsupported on big-endian hardware", what)
	}
	if len(b)%width != 0 {
		return fmt.Errorf("mmap: %s cast of %d bytes (not a multiple of %d)", what, len(b), width)
	}
	return fmt.Errorf("mmap: %s cast of %d-byte-misaligned slice", what, width)
}

func aligned(b []byte, width int) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%uintptr(width) == 0
}

// Int32s aliases b as a []int32. b must be 4-byte aligned and a
// multiple of 4 long; the result shares b's storage and inherits its
// read-only page protection.
func Int32s(b []byte) ([]int32, error) {
	if !nativeLittleEndian || len(b)%4 != 0 || !aligned(b, 4) {
		return nil, castErr("int32", 4, b)
	}
	if len(b) == 0 {
		return []int32{}, nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

// Float64s aliases b as a []float64 (8-byte alignment required).
func Float64s(b []byte) ([]float64, error) {
	if !nativeLittleEndian || len(b)%8 != 0 || !aligned(b, 8) {
		return nil, castErr("float64", 8, b)
	}
	if len(b) == 0 {
		return []float64{}, nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}
