package cluster

import (
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
)

// twoCommunities builds a graph with two disconnected ring communities;
// cross-community SimRank is exactly zero, so any clustering with a
// positive threshold must separate them.
func twoCommunities(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12, true)
	community := func(start int) {
		for i := 0; i < 6; i++ {
			b.AddEdge(graph.NodeID(start+i), graph.NodeID(start+(i+1)%6))
			b.AddEdge(graph.NodeID(start+i), graph.NodeID(start+(i+2)%6))
		}
	}
	community(0)
	community(6)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGreedySeparatesCommunities(t *testing.T) {
	g := twoCommunities(t)
	res, err := Greedy(g, Options{
		Theta:  0.15,
		Params: core.Params{Iterations: 800, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every node must be assigned.
	for v, id := range res.Assignment {
		if id < 0 || id >= len(res.Clusters) {
			t.Fatalf("node %d unassigned (%d)", v, id)
		}
	}
	// No cluster may span both communities.
	for _, c := range res.Clusters {
		low, high := false, false
		for _, v := range c.Members {
			if v < 6 {
				low = true
			} else {
				high = true
			}
		}
		if low && high {
			t.Errorf("cluster %v spans both communities", c.Members)
		}
	}
	// Clusters must be disjoint and cover all nodes.
	seen := map[graph.NodeID]bool{}
	total := 0
	for _, c := range res.Clusters {
		for _, v := range c.Members {
			if seen[v] {
				t.Fatalf("node %d in two clusters", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != g.NumNodes() {
		t.Errorf("clusters cover %d of %d nodes", total, g.NumNodes())
	}
}

func TestCoverageBeatsScatter(t *testing.T) {
	g := twoCommunities(t)
	res, err := Greedy(g, Options{Theta: 0.15, Params: core.Params{Iterations: 800, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	cov := Coverage(g, res)
	if cov <= 0.3 {
		t.Errorf("coverage %.2f too low for a two-community graph", cov)
	}
	// All-singleton clustering has coverage 0.
	single := &Result{Assignment: make([]int, g.NumNodes())}
	for v := range single.Assignment {
		single.Assignment[v] = v
		single.Clusters = append(single.Clusters, Cluster{Seed: graph.NodeID(v), Members: []graph.NodeID{graph.NodeID(v)}})
	}
	if got := Coverage(g, single); got != 0 {
		t.Errorf("singleton coverage = %g, want 0", got)
	}
}

func TestMinClusterSize(t *testing.T) {
	g := twoCommunities(t)
	res, err := Greedy(g, Options{
		Theta:          0.15,
		Params:         core.Params{Iterations: 400, Seed: 5},
		MinClusterSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if len(c.Members) != 1 && len(c.Members) < 3 {
			t.Errorf("cluster of size %d below the floor survived", len(c.Members))
		}
	}
	for v, id := range res.Assignment {
		if id == -1 {
			t.Errorf("node %d lost its assignment after dissolution", v)
		}
	}
}

func TestSharedNeighborAffinity(t *testing.T) {
	// Nodes 1 and 2 share in-neighbor 0; node 3 is fed only by 4.
	g := graph.NewBuilder(5, true).
		AddEdge(0, 1).AddEdge(0, 2).AddEdge(4, 3).
		MustFreeze()
	good := &Result{Clusters: []Cluster{{Members: []graph.NodeID{1, 2}}}}
	if got := SharedNeighborAffinity(g, good); got != 1 {
		t.Errorf("affinity of sibling cluster = %g, want 1", got)
	}
	bad := &Result{Clusters: []Cluster{{Members: []graph.NodeID{1, 3}}}}
	if got := SharedNeighborAffinity(g, bad); got != 0 {
		t.Errorf("affinity of unrelated cluster = %g, want 0", got)
	}
	singles := &Result{Clusters: []Cluster{{Members: []graph.NodeID{1}}}}
	if got := SharedNeighborAffinity(g, singles); got != 0 {
		t.Errorf("affinity with only singletons = %g, want 0", got)
	}
}

func TestAffinityOnRealClustering(t *testing.T) {
	edges, err := gen.PreferentialAttachment(120, 3, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(120, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(g, Options{Theta: 0.1, Params: core.Params{Iterations: 400, Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	// SimRank clusters must have a substantially higher shared-neighbor
	// rate than grouping everything into one blob.
	blob := &Result{Clusters: []Cluster{{Members: allNodes(g)}}, Assignment: make([]int, g.NumNodes())}
	clustered := SharedNeighborAffinity(g, res)
	baseline := SharedNeighborAffinity(g, blob)
	if clustered <= baseline {
		t.Errorf("clustered affinity %.3f not above blob baseline %.3f", clustered, baseline)
	}
}

func allNodes(g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, g.NumNodes())
	for v := range out {
		out[v] = graph.NodeID(v)
	}
	return out
}

func TestValidation(t *testing.T) {
	g := twoCommunities(t)
	if _, err := Greedy(g, Options{Theta: 2}); err == nil {
		t.Error("bad theta accepted")
	}
	if _, err := Greedy(g, Options{MinClusterSize: -1}); err == nil {
		t.Error("bad min size accepted")
	}
	if _, err := Greedy(g, Options{Params: core.Params{C: 9}}); err == nil {
		t.Error("bad params accepted")
	}
}

func TestGreedyOnGeneratedGraph(t *testing.T) {
	edges, err := gen.PreferentialAttachment(150, 3, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(150, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(g, Options{Theta: 0.08, Params: core.Params{Iterations: 300, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 || len(res.Clusters) > g.NumNodes() {
		t.Errorf("implausible cluster count %d", len(res.Clusters))
	}
}
