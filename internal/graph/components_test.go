package graph

import (
	"reflect"
	"testing"
)

func TestComponents(t *testing.T) {
	// Two components: {0,1,2} (directed chain) and {3,4}; 5 isolated.
	g := NewBuilder(6, true).
		AddEdge(0, 1).AddEdge(1, 2).AddEdge(4, 3).
		MustFreeze()
	ids, count := Components(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Errorf("chain split across components: %v", ids)
	}
	if ids[3] != ids[4] || ids[3] == ids[0] {
		t.Errorf("pair component wrong: %v", ids)
	}
	if ids[5] == ids[0] || ids[5] == ids[3] {
		t.Errorf("isolated node merged: %v", ids)
	}
}

func TestGiantComponent(t *testing.T) {
	g := NewBuilder(7, false).
		AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3). // size 4
		AddEdge(4, 5).                             // size 2
		MustFreeze()
	giant := GiantComponent(g)
	if !reflect.DeepEqual(giant, []NodeID{0, 1, 2, 3}) {
		t.Errorf("giant = %v", giant)
	}
	empty, _ := NewBuilder(0, true).Freeze()
	if GiantComponent(empty) != nil {
		t.Error("empty graph should have nil giant component")
	}
}
