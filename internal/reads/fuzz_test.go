package reads

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"crashsim/internal/graph"
)

// FuzzImportFlat feeds ImportFlat, with validation on, a built index's
// export after a list of column edits (see editColumns). It must reject
// the payload or return an index that answers a query from every
// source. The seeds are the pristine export and the corruptions of
// TestImportFlatRejectsCorruptShape.
func FuzzImportFlat(f *testing.F) {
	g := flatTestGraph(f, true)
	built, err := Build(g, Options{R: 8, MaxLen: 5, RQ: 2, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	base := built.Export()
	columns := func(fl *Flat) []any {
		return []any{&fl.WalkOff, &fl.Nodes, &fl.RunOff, &fl.InvNodes, &fl.ListOff, &fl.InvOrigins}
	}
	f.Add([]byte{})
	f.Add(flatOp(1, 0, len(base.WalkOff)-1, 0))
	f.Add(flatOp(1, 2, len(base.RunOff)-1, 0))
	f.Add(flatOp(1, 4, len(base.ListOff)-1, 0))
	f.Add(flatOp(1, 5, len(base.InvOrigins)-1, 0))
	f.Add(flatOp(0, 1, int(base.WalkOff[1]), 99))
	f.Fuzz(func(t *testing.T, ops []byte) {
		fl := base
		editColumns(columns(&fl), ops)
		ix, err := ImportFlat(g, fl, true)
		if err != nil {
			return
		}
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			if _, err := ix.SingleSource(u); err != nil {
				t.Fatalf("source %d: %v", u, err)
			}
		}
	})
}

// flatOp encodes one column edit of a fuzz input: 12 bytes holding the
// edit kind (0 set, 1 truncate, 2 append), the column, a 16-bit
// position and a 64-bit value.
func flatOp(kind, col, at int, val uint64) []byte {
	op := []byte{byte(kind), byte(col), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint16(op[2:], uint16(at))
	binary.LittleEndian.PutUint64(op[4:], val)
	return op
}

// editColumns applies the 12-byte edits of ops to copies of the columns
// (pointers to []int32 or []float64): set the value at a position,
// truncate to a length, or append the value.
func editColumns(cols []any, ops []byte) {
	for ; len(ops) >= 12; ops = ops[12:] {
		kind, at, val := int(ops[0]%3), int(binary.LittleEndian.Uint16(ops[2:])), binary.LittleEndian.Uint64(ops[4:])
		switch c := cols[int(ops[1])%len(cols)].(type) {
		case *[]int32:
			editColumn(c, kind, at, int32(val))
		case *[]float64:
			editColumn(c, kind, at, math.Float64frombits(val))
		}
	}
}

func editColumn[T any](s *[]T, kind, at int, v T) {
	*s = slices.Clone(*s)
	switch kind {
	case 0:
		if len(*s) > 0 {
			(*s)[at%len(*s)] = v
		}
	case 1:
		*s = (*s)[:at%(len(*s)+1)]
	case 2:
		*s = append(*s, v)
	}
}
