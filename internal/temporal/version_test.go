package temporal

import (
	"slices"
	"testing"

	"crashsim/internal/graph"
)

// Snapshot versions are the cache-invalidation signal for temporal
// serving: advancing past a non-empty delta must change the version,
// an empty delta must not (the edge sets are identical), and
// materializing the same snapshot twice must report the same version.

func testHistory(t *testing.T) *Graph {
	t.Helper()
	tg, err := New(5, true,
		[]graph.Edge{{X: 0, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 3}},
		[]Delta{
			{Add: []graph.Edge{{X: 3, Y: 4}}}, // t0 -> t1
			{},                                // t1 -> t2 (no change)
			{Del: []graph.Edge{{X: 0, Y: 1}}, Add: []graph.Edge{{X: 0, Y: 4}}}, // t2 -> t3
		})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestSnapshotVersionMonotone(t *testing.T) {
	tg := testHistory(t)
	versions := make([]uint64, tg.NumSnapshots())
	for i := range versions {
		g, err := tg.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		versions[i] = g.Version()
	}
	if versions[1] <= versions[0] {
		t.Fatalf("non-empty delta did not advance version: %v", versions)
	}
	if versions[2] != versions[1] {
		t.Fatalf("empty delta changed version: %v", versions)
	}
	if versions[3] <= versions[2] {
		t.Fatalf("del+add delta did not advance version: %v", versions)
	}
}

func TestSnapshotVersionDeterministic(t *testing.T) {
	tg := testHistory(t)
	for i := 0; i < tg.NumSnapshots(); i++ {
		a, err := tg.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tg.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if a.Version() != b.Version() {
			t.Fatalf("snapshot %d version not deterministic: %d vs %d", i, a.Version(), b.Version())
		}
	}
}

func TestCursorFreezeVersionMatchesSnapshot(t *testing.T) {
	tg := testHistory(t)
	cur, err := tg.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	for {
		want, err := tg.Snapshot(cur.T())
		if err != nil {
			t.Fatal(err)
		}
		if got := cur.Freeze().Version(); got != want.Version() {
			t.Fatalf("snapshot %d: cursor version %d != Snapshot version %d", cur.T(), got, want.Version())
		}
		if !cur.Next() {
			break
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorFreezeMemoized: a cursor hands back the graph it already
// froze while the working graph's generation stands still — on a
// repeated call and across an empty delta — and freezes a new one
// after a non-empty delta. The shared graph carries the same version
// and edge set Snapshot materializes from scratch.
func TestCursorFreezeMemoized(t *testing.T) {
	tg := testHistory(t)
	cur, err := tg.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	prev := cur.Freeze()
	if again := cur.Freeze(); again != prev {
		t.Fatal("repeated Freeze built a new graph")
	}
	for cur.Next() {
		g := cur.Freeze()
		empty := tg.Delta(cur.T()-1).Size() == 0
		if empty != (g == prev) {
			t.Fatalf("snapshot %d: empty delta %v, graph reused %v", cur.T(), empty, g == prev)
		}
		if !empty && g.Version() <= prev.Version() {
			t.Fatalf("snapshot %d: version %d did not advance past %d", cur.T(), g.Version(), prev.Version())
		}
		want, err := tg.Snapshot(cur.T())
		if err != nil {
			t.Fatal(err)
		}
		if g.Version() != want.Version() || !slices.Equal(g.Edges(), want.Edges()) {
			t.Fatalf("snapshot %d: memoized graph differs from Snapshot", cur.T())
		}
		prev = g
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
}
