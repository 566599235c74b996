package temporal

import (
	"bytes"
	"strings"
	"testing"

	"crashsim/internal/graph"
)

func TestTemporalIORoundTrip(t *testing.T) {
	tg := mustTemporal(t, 4, true,
		[]graph.Edge{{X: 0, Y: 1}, {X: 2, Y: 3}},
		[]Delta{
			{Add: []graph.Edge{{X: 1, Y: 2}}},
			{Del: []graph.Edge{{X: 0, Y: 1}}},
		})
	var buf bytes.Buffer
	if err := Write(&buf, tg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumNodes() != 4 || got.NumSnapshots() != 3 || !got.Directed() {
		t.Fatalf("round trip header mismatch: n=%d T=%d", got.NumNodes(), got.NumSnapshots())
	}
	for i := 0; i < 3; i++ {
		a, err := tg.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumEdges() != b.NumEdges() {
			t.Errorf("snapshot %d edges %d vs %d", i, a.NumEdges(), b.NumEdges())
		}
		for _, e := range a.Edges() {
			if !b.HasEdge(e.X, e.Y) {
				t.Errorf("snapshot %d lost edge %v", i, e)
			}
		}
	}
}

func TestTemporalReadLimits(t *testing.T) {
	huge := "# crashsim-temporal: nodes=999999999 directed=true snapshots=2\n"
	if _, err := Read(strings.NewReader(huge)); err == nil {
		t.Error("absurd node count accepted by default limit")
	}
	manySnaps := "# crashsim-temporal: nodes=3 directed=true snapshots=999999999\n"
	if _, err := Read(strings.NewReader(manySnaps)); err == nil {
		t.Error("absurd snapshot count accepted")
	}
	if _, err := ReadLimit(strings.NewReader("# crashsim-temporal: nodes=100 snapshots=1\n"), 50); err == nil {
		t.Error("explicit limit not enforced")
	}
}

func TestTemporalReadErrors(t *testing.T) {
	header := "# crashsim-temporal: nodes=3 directed=true snapshots=2\n"
	cases := []struct {
		name, in, want string
	}{
		{"missing header", "0 + 0 1\n", "missing"},
		{"bad field count", header + "0 + 1\n", "want 4 fields"},
		{"bad snapshot", header + "9 + 0 1\n", "bad snapshot index"},
		{"unsorted", header + "1 + 0 1\n0 + 1 2\n", "not sorted"},
		{"bad op", header + "0 * 0 1\n", "bad op"},
		{"bad node", header + "0 + a 1\n", "bad node id"},
		{"del at zero", header + "0 - 0 1\n", "deletion in initial snapshot"},
		{"bad header nodes", "# crashsim-temporal: nodes=x\n", "bad node count"},
		{"bad header snapshots", "# crashsim-temporal: nodes=3 snapshots=0\n", "bad snapshot count"},
		{"unknown header", "# crashsim-temporal: color=red\n", "unknown header field"},
		{"empty", "", "missing header"},
		{"inconsistent delta", header + "1 - 0 1\n", "not present"},
		{"repeated header", header + "0 + 0 1\n1 + 1 2\n# crashsim-temporal: nodes=3 directed=false snapshots=3\n", "line 4: repeated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}
