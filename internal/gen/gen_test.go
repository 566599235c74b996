package gen

import (
	"testing"
	"testing/quick"

	"crashsim/internal/graph"
)

func TestErdosRenyiExactEdgeCount(t *testing.T) {
	for _, directed := range []bool{true, false} {
		edges, err := ErdosRenyi(50, 120, directed, 1)
		if err != nil {
			t.Fatalf("ErdosRenyi(directed=%t): %v", directed, err)
		}
		g, err := BuildStatic(50, directed, edges)
		if err != nil {
			t.Fatalf("BuildStatic: %v", err)
		}
		if g.NumEdges() != 120 {
			t.Errorf("directed=%t: edges = %d, want 120", directed, g.NumEdges())
		}
	}
}

func TestErdosRenyiTooDense(t *testing.T) {
	if _, err := ErdosRenyi(4, 100, true, 1); err == nil {
		t.Error("over-dense request accepted")
	}
}

func TestErdosRenyiDeterminism(t *testing.T) {
	a, err := ErdosRenyi(30, 60, true, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ErdosRenyi(30, 60, true, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPreferentialAttachment(t *testing.T) {
	edges, err := PreferentialAttachment(200, 3, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildStatic(200, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	// Each of the n-k-1 arriving nodes adds ~k edges plus the seed clique.
	if s.Edges < 500 || s.Edges > 200*3+10 {
		t.Errorf("edge count %d outside plausible range", s.Edges)
	}
	// Power-law graphs must have a hub far above the mean degree.
	if s.MaxInDeg < 3*int(s.MeanInDeg) {
		t.Errorf("max in-degree %d too small for preferential attachment (mean %.1f)", s.MaxInDeg, s.MeanInDeg)
	}
	if _, err := PreferentialAttachment(3, 3, true, 1); err == nil {
		t.Error("n <= k accepted")
	}
}

func TestChungLu(t *testing.T) {
	edges, err := ChungLu(300, 900, 2.2, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildStatic(300, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 900 {
		t.Errorf("edges = %d, want 900", g.NumEdges())
	}
	s := graph.ComputeStats(g)
	if s.MaxInDeg < 2*int(s.MeanInDeg) {
		t.Errorf("degree distribution not skewed: max %d, mean %.1f", s.MaxInDeg, s.MeanInDeg)
	}
	if _, err := ChungLu(10, 5, 0.5, true, 1); err == nil {
		t.Error("exponent <= 1 accepted")
	}
}

func TestSmallWorld(t *testing.T) {
	edges, err := SmallWorld(100, 3, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildStatic(100, false, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 300 {
		t.Errorf("edges = %d, want 300 (rewiring preserves count)", g.NumEdges())
	}
	if _, err := SmallWorld(5, 3, 0.1, 1); err == nil {
		t.Error("k >= n/2 accepted")
	}
	if _, err := SmallWorld(100, 3, 1.5, 1); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestChurnKeepsHistoryConsistent(t *testing.T) {
	base, err := ErdosRenyi(60, 150, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := Churn(60, true, base, ChurnOptions{Snapshots: 20, AddRate: 0.05, DelRate: 0.05, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumSnapshots() != 20 {
		t.Fatalf("snapshots = %d, want 20", tg.NumSnapshots())
	}
	// Edge count should stay near the base size under balanced churn.
	cur, err := tg.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	for {
		m := cur.Freeze().NumEdges()
		if m < 100 || m > 200 {
			t.Errorf("snapshot %d edge count %d drifted outside [100,200]", cur.T(), m)
		}
		if !cur.Next() {
			break
		}
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
}

func TestChurnValidation(t *testing.T) {
	if _, err := Churn(10, true, nil, ChurnOptions{Snapshots: 0}); err == nil {
		t.Error("zero snapshots accepted")
	}
	if _, err := Churn(10, true, nil, ChurnOptions{Snapshots: 2, AddRate: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	dup := []graph.Edge{{X: 0, Y: 1}, {X: 0, Y: 1}}
	if _, err := Churn(10, true, dup, ChurnOptions{Snapshots: 2}); err == nil {
		t.Error("duplicate base edge accepted")
	}
}

// TestChurnDeltasAreSmall property-checks that each transition changes at
// most the requested fraction of edges — the pruning opportunity
// CrashSim-T exploits.
func TestChurnDeltasAreSmall(t *testing.T) {
	f := func(seed uint64) bool {
		base, err := ErdosRenyi(40, 100, true, seed)
		if err != nil {
			return false
		}
		tg, err := Churn(40, true, base, ChurnOptions{Snapshots: 10, AddRate: 0.02, DelRate: 0.02, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < tg.NumSnapshots()-1; i++ {
			if tg.Delta(i).Size() > 8 { // 2 + 2 edges of 100, with slack
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestChurnActiveFraction(t *testing.T) {
	base, err := ErdosRenyi(50, 120, true, 23)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := Churn(50, true, base, ChurnOptions{
		Snapshots: 40, AddRate: 0.05, DelRate: 0.05, ActiveFraction: 0.3, Seed: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet, active := 0, 0
	for i := 0; i < tg.NumSnapshots()-1; i++ {
		if tg.Delta(i).Size() == 0 {
			quiet++
		} else {
			active++
		}
	}
	// With ActiveFraction 0.3 over 39 transitions, expect far more quiet
	// than active steps (deterministic for the fixed seed).
	if quiet <= active {
		t.Errorf("quiet=%d active=%d; expected mostly quiet transitions", quiet, active)
	}
	if active == 0 {
		t.Error("no active transitions at all")
	}
	if _, err := Churn(50, true, base, ChurnOptions{Snapshots: 2, ActiveFraction: 2}); err == nil {
		t.Error("active fraction > 1 accepted")
	}
}

func TestProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 5 {
		t.Fatalf("have %d profiles, want 5 (Table III)", len(ps))
	}
	want := map[string]struct {
		directed bool
		n, m, t  int
	}{
		"as-733":    {false, 6474, 13233, 733},
		"as-caida":  {true, 26475, 106762, 122},
		"wiki-vote": {true, 7115, 103689, 100},
		"hepth":     {false, 9877, 25998, 100},
		"hepph":     {true, 34546, 421578, 100},
	}
	for _, p := range ps {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %q", p.Name)
			continue
		}
		if p.Directed != w.directed || p.Nodes != w.n || p.Edges != w.m || p.Snapshots != w.t {
			t.Errorf("profile %q = %+v, want %+v", p.Name, p, w)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
	p, err := ProfileByName("as-733")
	if err != nil || p.Name != "as-733" {
		t.Errorf("ProfileByName: %v, %v", p, err)
	}
}

func TestProfileScaled(t *testing.T) {
	p, err := ProfileByName("hepph")
	if err != nil {
		t.Fatal(err)
	}
	q := p.Scaled(0.1)
	if q.Nodes < 3000 || q.Nodes > 4000 {
		t.Errorf("scaled nodes = %d, want ~3455", q.Nodes)
	}
	if q.Edges < 40000 || q.Edges > 45000 {
		t.Errorf("scaled edges = %d, want ~42158", q.Edges)
	}
	if same := p.Scaled(1.0); same != p {
		t.Error("scale 1.0 should be identity")
	}
	if same := p.Scaled(-1); same != p {
		t.Error("invalid scale should be identity")
	}
	if got := p.WithSnapshots(17); got.Snapshots != 17 {
		t.Errorf("WithSnapshots = %d", got.Snapshots)
	}
}

func TestProfileStaticGeneratesRequestedShape(t *testing.T) {
	for _, name := range []string{"as-733", "wiki-vote", "hepth"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p = p.Scaled(0.05)
		g, err := p.Static(3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumNodes() != p.Nodes {
			t.Errorf("%s: nodes = %d, want %d", name, g.NumNodes(), p.Nodes)
		}
		if g.Directed() != p.Directed {
			t.Errorf("%s: directed = %t, want %t", name, g.Directed(), p.Directed)
		}
		// Edge counts are approximate for preferential attachment.
		m := g.NumEdges()
		if m < p.Edges/2 || m > 2*p.Edges {
			t.Errorf("%s: edges = %d, want within 2x of %d", name, m, p.Edges)
		}
	}
}

func TestProfileTemporal(t *testing.T) {
	p, err := ProfileByName("as-733")
	if err != nil {
		t.Fatal(err)
	}
	p = p.Scaled(0.03).WithSnapshots(12)
	tg, err := p.Temporal(5)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumSnapshots() != 12 {
		t.Errorf("snapshots = %d, want 12", tg.NumSnapshots())
	}
	if tg.NumNodes() != p.Nodes {
		t.Errorf("nodes = %d, want %d", tg.NumNodes(), p.Nodes)
	}
	// At least one transition must carry changes; otherwise CrashSim-T's
	// pruning experiments are vacuous.
	changed := 0
	for i := 0; i < tg.NumSnapshots()-1; i++ {
		changed += tg.Delta(i).Size()
	}
	if changed == 0 {
		t.Error("no churn in temporal profile")
	}
}

func TestBipartiteValidation(t *testing.T) {
	cases := []BipartiteOptions{
		{Users: 1, Items: 10},                                      // too few users
		{Users: 10, Items: 1},                                      // too few items
		{Users: 10, Items: 10, Groups: 20},                         // groups > items
		{Users: 10, Items: 10, Groups: 2, PurchasesPerUser: 9},     // pool too small
		{Users: 10, Items: 10, DriftRate: 2},                       // bad rate
		{Users: 10, Items: 10, SwitchRate: -1},                     // bad rate
		{Users: 10, Items: 10, Snapshots: -1, PurchasesPerUser: 1}, // bad snapshots
	}
	for i, o := range cases {
		if _, _, err := Bipartite(o); err == nil {
			t.Errorf("case %d (%+v) accepted", i, o)
		}
	}
}

func TestBipartiteGroupsAndDrift(t *testing.T) {
	o := BipartiteOptions{
		Users: 16, Items: 32, Groups: 4, PurchasesPerUser: 4,
		Snapshots: 6, DriftRate: 1, SwitchRate: 0, Seed: 9,
	}
	tg, groups, err := Bipartite(o)
	if err != nil {
		t.Fatal(err)
	}
	// SwitchRate 0: groups never change across snapshots.
	for t2 := 1; t2 < len(groups); t2++ {
		for u := range groups[t2] {
			if groups[t2][u] != groups[0][u] {
				t.Fatalf("user %d changed group at t=%d despite SwitchRate=0", u, t2)
			}
		}
	}
	// DriftRate 1: every non-initial transition must carry some change.
	for i := 0; i < tg.NumSnapshots()-1; i++ {
		if tg.Delta(i).Size() == 0 {
			t.Errorf("transition %d has no drift despite DriftRate=1", i)
		}
	}
	// ItemNode maps into the item id range.
	if got := o.ItemNode(0); int(got) != o.Users {
		t.Errorf("ItemNode(0) = %d, want %d", got, o.Users)
	}
	// Users only ever purchase from their group's pool: user u in group
	// g buys items in [g*pool, (g+1)*pool).
	pool := o.Items / o.Groups
	for ti := 0; ti < tg.NumSnapshots(); ti++ {
		g, err := tg.Snapshot(ti)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < o.Users; u++ {
			grp := groups[ti][u]
			for _, it := range g.In(graph.NodeID(u)) {
				idx := int(it) - o.Users
				if idx < grp*pool || idx >= (grp+1)*pool {
					t.Fatalf("snapshot %d: user %d (group %d) owns out-of-pool item %d", ti, u, grp, idx)
				}
			}
		}
	}
}

func TestBipartiteSwitchChangesGroups(t *testing.T) {
	o := BipartiteOptions{
		Users: 20, Items: 40, Groups: 4, PurchasesPerUser: 4,
		Snapshots: 8, DriftRate: 0, SwitchRate: 0.5, Seed: 3,
	}
	_, groups, err := Bipartite(o)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	last := len(groups) - 1
	for u := range groups[0] {
		if groups[last][u] != groups[0][u] {
			changed = true
		}
	}
	if !changed {
		t.Error("no user switched groups despite SwitchRate=0.5 over 8 snapshots")
	}
}

func TestModelString(t *testing.T) {
	if ModelPrefAttach.String() != "pref-attach" ||
		ModelChungLu.String() != "chung-lu" ||
		ModelErdosRenyi.String() != "erdos-renyi" {
		t.Error("model strings wrong")
	}
	if Model(42).String() == "" {
		t.Error("unknown model should stringify")
	}
}

func TestServingProfileWeb1m(t *testing.T) {
	p, err := ProfileByName("web-1m")
	if err != nil {
		t.Fatal(err)
	}
	if p.Edges < 1_000_000 {
		t.Fatalf("web-1m declares %d edges, serving benchmarks need >= 10^6", p.Edges)
	}
	// Serving profiles stay out of the paper set: the paper
	// experiments iterate Profiles(), and growing it would silently
	// change every committed table and figure.
	for _, q := range Profiles() {
		if q.Name == p.Name {
			t.Fatalf("serving profile %q leaked into Profiles()", p.Name)
		}
	}
	// Generating the full 10^6-edge graph in a unit test would cost
	// seconds; a scaled instance exercises the same generator path.
	small := p.Scaled(0.005)
	g, err := small.Static(42)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != small.Nodes || g.NumEdges() == 0 {
		t.Fatalf("scaled web-1m generated n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}
