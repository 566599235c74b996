package store

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"crashsim/internal/mmap"
)

// FuzzDecode drives the one snapshot decoder with hostile images. Each
// input gets every in-bounds section CRC re-stamped first, so mutations
// get past the checksum and reach the field decoders.
//
//   - VerifyEager (what Load and Decode use): an accepted image must
//     let every present section be imported or refused with an error,
//     and every imported index must answer SingleSource(0).
//   - VerifyNone: the caller vouches for the bytes, so only open and
//     import run; they must return, not panic.
//
// Queries run under a deadline: options read from the file set the
// work a query does, and an aborted query is an error, not a crash.
func FuzzDecode(f *testing.F) {
	snap, _, _, _ := testSnapshot(f)
	pristine := encodeOK(f, snap)
	f.Add(pristine)
	for _, c := range corruptions(f, snap, pristine) {
		f.Add(c.data)
	}
	for _, c := range forgedOptions() {
		forged := *snap
		c.forge(&forged)
		f.Add(encodeOK(f, &forged))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = restampCRCs(data)
		for _, verify := range []VerifyPolicy{VerifyEager, VerifyNone} {
			mp, err := newMapped(mmap.FromBytes(data), "", verify)
			if err != nil {
				continue
			}
			fuzzImports(mp, verify == VerifyEager)
			mp.Close()
		}
	})
}

// fuzzImports imports every present index section of mp and, with
// query set, asks each imported index for SingleSource(0).
func fuzzImports(mp *Mapped, query bool) {
	g := mp.Graph()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	ask := query && g.NumNodes() > 0
	if mp.Has(SecSling) {
		if ix, err := mp.ImportSling(g); err == nil {
			if ask {
				ix.SingleSourceCtx(ctx, 0)
			}
			ix.Close()
		}
	}
	if mp.Has(SecReads) {
		if ix, err := mp.ImportReads(g); err == nil {
			if ask {
				ix.SingleSourceCtx(ctx, 0)
			}
			ix.Close()
		}
	}
	if mp.Has(SecPRSim) {
		if ix, err := mp.ImportPRSim(g); err == nil {
			if ask {
				ix.SingleSourceCtx(ctx, 0)
			}
			ix.Close()
		}
	}
}

// restampCRCs returns a copy of data with the CRC of every section
// whose table entry and payload lie inside the image recomputed.
func restampCRCs(data []byte) []byte {
	data = append([]byte(nil), data...)
	if len(data) < headerSize {
		return data
	}
	count := int(min(uint64(binary.LittleEndian.Uint32(data[20:24])),
		uint64(len(data)-headerSize)/sectionHeaderSize))
	for i := 0; i < count; i++ {
		e := data[headerSize+i*sectionHeaderSize:]
		off := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		if off <= uint64(len(data)) && length <= uint64(len(data))-off {
			binary.LittleEndian.PutUint32(e[24:28], crc32.ChecksumIEEE(data[off:off+length]))
		}
	}
	return data
}
