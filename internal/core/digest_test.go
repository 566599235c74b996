package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

// scoreDigest accumulates an FNV-64a hash over node ids and the exact
// bits of their scores.
type scoreDigest struct{ h hash.Hash64 }

func newScoreDigest() *scoreDigest { return &scoreDigest{h: fnv.New64a()} }

func (d *scoreDigest) word(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

func (d *scoreDigest) entry(v graph.NodeID, s float64) {
	d.word(uint64(v))
	d.word(math.Float64bits(s))
}

// scores hashes s in ascending node order, so the digest does not
// depend on map iteration order.
func (d *scoreDigest) scores(s Scores) {
	nodes := make([]graph.NodeID, 0, len(s))
	for v := range s {
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)
	d.word(uint64(len(nodes)))
	for _, v := range nodes {
		d.entry(v, s[v])
	}
}

// TestScoreDigest pins every public estimator's output, bit for bit, to
// digests recorded before the flat-tree rewrite of the build-time tree
// and the single-tree top-k (the non-backtracking rows after its level
// marginals were first summed in sorted state order; before that they
// depended on map iteration order). Any change to the random streams, the
// tree's floating-point summation order, the kernel's accumulation
// order or the top-k candidate selection changes a digest. Each row is
// one (meeting rule, transition, non-backtracking) configuration on the
// same generated graph and history.
func TestScoreDigest(t *testing.T) {
	const n = 120
	edges, err := gen.ErdosRenyi(n, 480, true, 91)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(n, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.ErdosRenyi(60, 180, true, 92)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := gen.Churn(60, true, base, gen.ChurnOptions{
		Snapshots: 6, AddRate: 0.03, DelRate: 0.03, ActiveFraction: 0.6, Seed: 93,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"first-meet/exact/nb=false":          "52ca798488495cf4",
		"any/exact/nb=false":                 "f7c727fc2cd03e32",
		"first-crash/exact/nb=false":         "9b22d15bfc316a6d",
		"first-meet/paper-literal/nb=false":  "493441c4a0939e9c",
		"any/paper-literal/nb=false":         "b4c99800f87a40b2",
		"first-crash/paper-literal/nb=false": "6292e0ed53b3bdb8",
		"first-meet/exact/nb=true":           "91f77c1d7acd9936",
		"any/exact/nb=true":                  "909f22f5b4f826ef",
		"first-crash/exact/nb=true":          "93a226079f18f22b",
		"first-meet/paper-literal/nb=true":   "b3c61acbd29d1f1e",
		"any/paper-literal/nb=true":          "385b7582c3eecb8c",
		"first-crash/paper-literal/nb=true":  "578da3ad69dd2bd5",
	}
	ctx := context.Background()
	for _, nb := range []bool{false, true} {
		for _, tr := range []TransitionRule{TransitionExact, TransitionPaperLiteral} {
			for _, mr := range []MeetingRule{MeetingFirstMeet, MeetingAny, MeetingFirstCrash} {
				name := fmt.Sprintf("%v/%v/nb=%v", mr, tr, nb)
				p := Params{Iterations: 100, Seed: 7, Meeting: mr, Transition: tr, NonBacktracking: nb, Workers: 2}
				d := newScoreDigest()

				s, err := SingleSourceCtx(ctx, g, 3, nil, p)
				if err != nil {
					t.Fatal(err)
				}
				d.scores(s)
				for _, nr := range []int{20, 400} {
					q := p
					q.Iterations = nr
					top, err := TopKCtx(ctx, g, 3, 10, q)
					if err != nil {
						t.Fatal(err)
					}
					d.word(uint64(len(top)))
					for _, r := range top {
						d.entry(r.Node, r.Score)
					}
				}
				multi, err := MultiSource(ctx, g, []graph.NodeID{3, 40, 3}, nil, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range multi {
					d.scores(m)
				}
				pair, err := SinglePairCtx(ctx, g, 3, 40, p)
				if err != nil {
					t.Fatal(err)
				}
				d.word(math.Float64bits(pair))
				for _, tq := range []TemporalQuery{thresholdQuery{0.01}, trendQuery{0.02}} {
					res, err := CrashSimTCtx(ctx, tg, 0, tq, p, TemporalOptions{})
					if err != nil {
						t.Fatal(err)
					}
					d.word(uint64(len(res.Omega)))
					for _, v := range res.Omega {
						d.entry(v, res.Final[v])
					}
				}

				got := fmt.Sprintf("%016x", d.h.Sum64())
				if w, ok := want[name]; !ok || got != w {
					t.Errorf("%s: digest %s, want %s", name, got, w)
				}
			}
		}
	}
}
