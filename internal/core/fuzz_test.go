package core

import (
	"context"
	"math"
	"testing"

	"crashsim/internal/graph"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs dry, so every input decodes to some case.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzEstimatePaths is the differential check of the one estimate
// path. The input decodes to a graph of 2–24 nodes, a source batch
// whose first source repeats at the end, a candidate set (nil, or a
// subset that may hold a source), a meeting rule, 1–4 workers, n_r,
// a seed and the prefilter/non-backtracking/pooling switches.
// MultiSource, SingleSourceCtx per source, SingleSourceWithTree and
// the Score fields of SingleSourceWithError must then agree bit for
// bit on every candidate.
func FuzzEstimatePaths(f *testing.F) {
	f.Add([]byte{10, 1, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 1, 40, 7, 0, 3, 0, 4, 9, 0})
	f.Add([]byte{16, 0, 48, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 2, 3, 25, 1, 1, 4, 0, 7, 2, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1})
	f.Add([]byte{3, 1, 2, 0, 1, 1, 2, 1, 0, 0, 9, 3, 6, 1, 0, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 2 + in.next()%23
		directed := in.next()&1 == 1
		b := graph.NewBuilder(n, directed)
		seen := make([]bool, n*n)
		for m := in.next() % (3 * n); m > 0; m-- {
			x, y := in.next()%n, in.next()%n
			if !directed && x > y {
				x, y = y, x
			}
			if x == y || seen[x*n+y] {
				continue
			}
			seen[x*n+y] = true
			b.AddEdge(graph.NodeID(x), graph.NodeID(y))
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		flags := in.next()
		p := Params{
			Meeting:          MeetingRule(in.next() % 3),
			Workers:          1 + in.next()%4,
			Iterations:       1 + in.next()%40,
			Seed:             uint64(in.next()),
			DisablePrefilter: flags&1 != 0,
			NonBacktracking:  flags&2 != 0,
			DisablePooling:   flags&4 != 0,
		}
		sources := make([]graph.NodeID, 1+in.next()%4)
		for i := range sources {
			sources[i] = graph.NodeID(in.next() % n)
		}
		sources = append(sources, sources[0])
		var omega []graph.NodeID
		if in.next()&1 == 1 {
			omega = []graph.NodeID{}
			for v := 0; v < n; v++ {
				if in.next()&1 == 1 {
					omega = append(omega, graph.NodeID(v))
				}
			}
		}
		want := n
		if omega != nil {
			want = len(omega)
		}

		batch, err := MultiSource(context.Background(), g, sources, omega, p)
		if err != nil {
			t.Fatalf("MultiSource: %v", err)
		}
		for i, u := range sources {
			single, err := SingleSourceCtx(context.Background(), g, u, omega, p)
			if err != nil {
				t.Fatalf("SingleSourceCtx(%d): %v", u, err)
			}
			tree, err := BuildTree(g, u, p)
			if err != nil {
				t.Fatal(err)
			}
			withTree, err := SingleSourceWithTree(g, u, omega, p, tree)
			if err != nil {
				t.Fatalf("SingleSourceWithTree(%d): %v", u, err)
			}
			withErr, err := SingleSourceWithError(g, u, omega, p)
			if err != nil {
				t.Fatalf("SingleSourceWithError(%d): %v", u, err)
			}
			if len(single) != want || len(batch[i]) != want || len(withTree) != want || len(withErr) != want {
				t.Fatalf("source %d: %d single, %d batch, %d with-tree, %d with-error scores, want %d",
					u, len(single), len(batch[i]), len(withTree), len(withErr), want)
			}
			for v, s := range single {
				bs, ok1 := batch[i][v]
				ts, ok2 := withTree[v]
				es, ok3 := withErr[v]
				if !ok1 || !ok2 || !ok3 {
					t.Fatalf("source %d node %d: missing from a path's result (batch %v, with-tree %v, with-error %v)", u, v, ok1, ok2, ok3)
				}
				for _, other := range []struct {
					path  string
					score float64
				}{{"MultiSource", bs}, {"SingleSourceWithTree", ts}, {"SingleSourceWithError", es.Score}} {
					if math.Float64bits(other.score) != math.Float64bits(s) {
						t.Fatalf("source %d node %d: %s %v, SingleSourceCtx %v (params %+v)", u, v, other.path, other.score, s, p)
					}
				}
			}
		}
	})
}
