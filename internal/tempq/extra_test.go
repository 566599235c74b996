package tempq

import (
	"math"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/temporal"
)

func TestBandKeep(t *testing.T) {
	b := Band{Low: 0.1, High: 0.5}
	cases := []struct {
		cur  float64
		want bool
	}{
		{0.1, true}, {0.3, true}, {0.5, true},
		{0.09, false}, {0.51, false}, {0, false},
	}
	for _, tc := range cases {
		if got := b.Keep(1, math.NaN(), tc.cur); got != tc.want {
			t.Errorf("Keep(cur=%g) = %t, want %t", tc.cur, got, tc.want)
		}
	}
	if b.Name() != "band-0.100-0.500" {
		t.Errorf("name = %q", b.Name())
	}
}

func TestDurableTopK(t *testing.T) {
	// Node 1 stays similar to node 0 in both snapshots (shared
	// in-neighbor 2 throughout); node 3 is similar only in snapshot 0.
	tg, err := temporal.New(5, true,
		[]graph.Edge{{X: 2, Y: 0}, {X: 2, Y: 1}, {X: 2, Y: 3}, {X: 4, Y: 2}},
		[]temporal.Delta{{
			Del: []graph.Edge{{X: 2, Y: 3}},
			Add: []graph.Edge{{X: 4, Y: 3}},
		}})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Iterations: 600, Seed: 9}
	res, err := DurableTopK(tg, 0, 2, p, core.TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Node != 1 {
		t.Errorf("most durable node = %d (min %.3f), want 1", res[0].Node, res[0].MinScore)
	}
	// Node 3's minimum collapses in snapshot 1, so its durability must
	// rank below node 1's.
	for _, r := range res {
		if r.Node == 3 && r.MinScore >= res[0].MinScore {
			t.Errorf("node 3 durability %.3f should trail node 1's %.3f", r.MinScore, res[0].MinScore)
		}
	}
	// Ordering is by descending minimum.
	if len(res) == 2 && res[0].MinScore < res[1].MinScore {
		t.Error("results not sorted by durability")
	}
}

// TestObserveMinAbsentNode is the regression test for the durable
// top-k stale-minimum bug: a node scored at t=0 but absent from a
// later snapshot's score map (disconnected — similarity 0) must have
// its minimum dropped to 0, not keep the stale t=0 value and outrank
// genuinely durable nodes.
func TestObserveMinAbsentNode(t *testing.T) {
	min := make(map[graph.NodeID]float64)
	observeMin(min, 0, core.Scores{1: 0.9, 2: 0.4})
	observeMin(min, 1, core.Scores{2: 0.3}) // node 1 absent: disconnected at t=1
	if min[1] != 0 {
		t.Errorf("absent node kept stale minimum %g, want 0", min[1])
	}
	if min[2] != 0.3 {
		t.Errorf("present node minimum = %g, want 0.3", min[2])
	}
	// A node appearing only after t=0 was never in the tracked set and
	// must not be invented retroactively.
	observeMin(min, 2, core.Scores{1: 0.1, 2: 0.5, 3: 0.8})
	if _, ok := min[3]; ok {
		t.Error("node absent at t=0 acquired a minimum")
	}
	if min[1] != 0 {
		t.Errorf("minimum rose from 0 to %g", min[1])
	}
}

// TestDurableTopKDisconnectedNode drives the same scenario end to end:
// node 3 is strongly similar to the source at t=0 and fully
// disconnected afterwards, so its durability (minimum score) must be 0
// and it must rank below a modestly-but-persistently similar node.
func TestDurableTopKDisconnectedNode(t *testing.T) {
	// t=0: nodes 1 and 3 share in-neighbor 2 with node 0; t=1: node 3
	// loses its only in-edge and is disconnected.
	tg, err := temporal.New(5, true,
		[]graph.Edge{{X: 2, Y: 0}, {X: 2, Y: 1}, {X: 2, Y: 3}, {X: 4, Y: 2}},
		[]temporal.Delta{{Del: []graph.Edge{{X: 2, Y: 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DurableTopK(tg, 0, 4, core.Params{Iterations: 400, Seed: 5}, core.TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byNode := make(map[graph.NodeID]float64, len(res))
	for _, r := range res {
		byNode[r.Node] = r.MinScore
	}
	if byNode[3] != 0 {
		t.Errorf("disconnected node durability = %g, want 0", byNode[3])
	}
	if byNode[1] <= byNode[3] {
		t.Errorf("persistent node (%g) should outrank disconnected node (%g)", byNode[1], byNode[3])
	}
}

func TestDurableTopKErrors(t *testing.T) {
	tg := smallTemporal(t, 10, 20, 2, 61)
	if _, err := DurableTopK(tg, 0, 0, core.Params{Iterations: 10}, core.TemporalOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := DurableTopK(tg, 99, 1, core.Params{Iterations: 10}, core.TemporalOptions{}); err == nil {
		t.Error("bad source accepted")
	}
}

// TestDurableThresholdEquivalence: a node survives the threshold query
// iff its minimum score across the interval clears θ — so the
// CrashSim-T threshold result set must exactly equal the durable-top-k
// nodes whose MinScore >= θ (same params, same seed, same machinery).
func TestDurableThresholdEquivalence(t *testing.T) {
	tg := smallTemporal(t, 30, 90, 5, 71)
	p := core.Params{Iterations: 150, Seed: 73}
	theta := 0.03

	res, err := core.CrashSimT(tg, 0, Threshold{Theta: theta}, p, core.TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	durable, err := DurableTopK(tg, 0, tg.NumNodes(), p, core.TemporalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromDurable := map[graph.NodeID]bool{0: true} // source always survives
	for _, d := range durable {
		if d.MinScore >= theta {
			fromDurable[d.Node] = true
		}
	}
	if len(fromDurable) != len(res.Omega) {
		t.Fatalf("durable-derived set has %d nodes, threshold query %d", len(fromDurable), len(res.Omega))
	}
	for _, v := range res.Omega {
		if !fromDurable[v] {
			t.Errorf("node %d in threshold result but min score below theta", v)
		}
	}
}

func TestObserverSeesEverySnapshot(t *testing.T) {
	tg := smallTemporal(t, 15, 40, 4, 63)
	var visits []int
	topt := core.TemporalOptions{Observer: func(t int, scores core.Scores) {
		visits = append(visits, t)
		if len(scores) == 0 {
			panic("empty score map in observer")
		}
	}}
	_, err := core.CrashSimT(tg, 0, keepAll{}, core.Params{Iterations: 30, Seed: 1}, topt)
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 4 {
		t.Fatalf("observer saw %d snapshots, want 4: %v", len(visits), visits)
	}
	for i, v := range visits {
		if v != i {
			t.Errorf("visit order %v", visits)
			break
		}
	}
}
