// Package cluster implements SimRank-based graph clustering, one of the
// applications the paper's introduction motivates (citing LinkClus
// [23]): nodes are grouped so that every member of a cluster is
// SimRank-similar to the cluster's seed.
//
// The algorithm is greedy seed expansion built on CrashSim's partial
// computation: repeatedly take the unassigned node with the highest
// in-degree as a seed, estimate its SimRank against only the remaining
// unassigned nodes (the candidate-set mode), and absorb every node
// scoring at least Theta. Partial computation makes the total cost
// proportional to Σ |unassigned| per cluster rather than clusters × n.
package cluster

import (
	"fmt"
	"sort"

	"crashsim/internal/core"
	"crashsim/internal/graph"
)

// Options configures clustering.
type Options struct {
	// Theta is the similarity threshold for joining a seed's cluster.
	// Default 0.1.
	Theta float64
	// Params configures the underlying CrashSim estimator.
	Params core.Params
	// MinClusterSize discards clusters smaller than this (their members
	// are reported as singletons). Default 1 (keep everything).
	MinClusterSize int
}

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 0.1
	}
	if o.MinClusterSize == 0 {
		o.MinClusterSize = 1
	}
	return o
}

// Validate checks option ranges after defaulting.
func (o Options) Validate() error {
	q := o.withDefaults()
	if q.Theta <= 0 || q.Theta >= 1 {
		return fmt.Errorf("cluster: theta=%g outside (0,1)", q.Theta)
	}
	if q.MinClusterSize < 1 {
		return fmt.Errorf("cluster: min cluster size must be >= 1, got %d", q.MinClusterSize)
	}
	return q.Params.Validate()
}

// Cluster is one discovered group; the seed is always the first member.
type Cluster struct {
	Seed    graph.NodeID
	Members []graph.NodeID // sorted, includes the seed
}

// Result is a full clustering.
type Result struct {
	Clusters []Cluster
	// Assignment maps every node to its cluster index in Clusters.
	Assignment []int
}

// Greedy clusters g by greedy SimRank seed expansion. Deterministic for
// a given seed order: seeds are chosen by decreasing in-degree, ties by
// node id.
func Greedy(g *graph.Graph, opt Options) (*Result, error) {
	o := opt.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	order := make([]graph.NodeID, n)
	for v := range order {
		order[v] = graph.NodeID(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.InDegree(order[i]), g.InDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})

	assignment := make([]int, n)
	for v := range assignment {
		assignment[v] = -1
	}
	var clusters []Cluster
	for _, seed := range order {
		if assignment[seed] != -1 {
			continue
		}
		var omega []graph.NodeID
		for v := graph.NodeID(0); int(v) < n; v++ {
			if assignment[v] == -1 && v != seed {
				omega = append(omega, v)
			}
		}
		members := []graph.NodeID{seed}
		if len(omega) > 0 {
			scores, err := core.SingleSource(g, seed, omega, o.Params)
			if err != nil {
				return nil, err
			}
			for _, v := range omega {
				if scores[v] >= o.Theta {
					members = append(members, v)
				}
			}
		}
		id := len(clusters)
		for _, v := range members {
			assignment[v] = id
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		clusters = append(clusters, Cluster{Seed: seed, Members: members})
	}

	if o.MinClusterSize > 1 {
		clusters, assignment = dissolveSmall(clusters, o.MinClusterSize, n)
	}
	return &Result{Clusters: clusters, Assignment: assignment}, nil
}

// dissolveSmall splits clusters below the size floor into singletons.
func dissolveSmall(clusters []Cluster, minSize, n int) ([]Cluster, []int) {
	var kept []Cluster
	for _, c := range clusters {
		if len(c.Members) >= minSize {
			kept = append(kept, c)
		} else {
			for _, v := range c.Members {
				kept = append(kept, Cluster{Seed: v, Members: []graph.NodeID{v}})
			}
		}
	}
	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = -1
	}
	for id, c := range kept {
		for _, v := range c.Members {
			assignment[v] = id
		}
	}
	return kept, assignment
}

// Coverage returns the fraction of edges whose endpoints share a
// cluster — a simple internal-quality measure: similar-structure
// grouping should capture more edges than random assignment.
func Coverage(g *graph.Graph, r *Result) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	inside := 0
	for _, e := range g.Edges() {
		if r.Assignment[e.X] == r.Assignment[e.Y] && r.Assignment[e.X] != -1 {
			inside++
		}
	}
	return float64(inside) / float64(g.NumEdges())
}

// SharedNeighborAffinity measures what SimRank clusters actually
// optimize: the fraction of intra-cluster member pairs that share at
// least one in-neighbor (the first-order source of SimRank similarity).
// Singleton clusters contribute nothing; the result is the pair
// fraction over all clusters of size >= 2, or 0 if there are none.
// Edge-based measures like Coverage are misleading for similarity
// clustering — in citation graphs, similar papers cite the same work
// but rarely cite each other.
func SharedNeighborAffinity(g *graph.Graph, r *Result) float64 {
	pairs, hits := 0, 0
	for _, c := range r.Clusters {
		for i := 0; i < len(c.Members); i++ {
			for j := i + 1; j < len(c.Members); j++ {
				pairs++
				if shareInNeighbor(g, c.Members[i], c.Members[j]) {
					hits++
				}
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(hits) / float64(pairs)
}

// shareInNeighbor reports whether two nodes have a common in-neighbor;
// both adjacency lists are sorted (CSR), so a merge scan suffices.
func shareInNeighbor(g *graph.Graph, a, b graph.NodeID) bool {
	ia, ib := g.In(a), g.In(b)
	i, j := 0, 0
	for i < len(ia) && j < len(ib) {
		switch {
		case ia[i] == ib[j]:
			return true
		case ia[i] < ib[j]:
			i++
		default:
			j++
		}
	}
	return false
}
