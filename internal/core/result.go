package core

import (
	"slices"
	"sync"

	"crashsim/internal/graph"
)

// Result is one source's single-source answer as parallel arrays: entry
// i scores node nodes[i]. It holds exactly the entries the Scores map of
// the same query holds, zero scores included, each node once, in no
// promised order (results built by this package list nodes ascending).
// A Result is immutable once built, so a cache can hand the same one to
// every reader and a batch can give it to each position asking for the
// same source; the zero Result is empty.
type Result struct {
	nodes  []graph.NodeID
	scores []float64
}

// NewResult wraps parallel node and score arrays as a Result, taking
// ownership of both: the caller must not write to them afterwards.
// Nodes must be distinct.
func NewResult(nodes []graph.NodeID, scores []float64) Result {
	if len(nodes) != len(scores) {
		panic("core: NewResult needs parallel arrays")
	}
	return Result{nodes: nodes, scores: scores}
}

// ResultOf copies a score map into a Result, for estimators that answer
// with maps.
func ResultOf(s Scores) Result {
	r := Result{nodes: make([]graph.NodeID, 0, len(s)), scores: make([]float64, 0, len(s))}
	for v, score := range s {
		r.nodes = append(r.nodes, v)
		r.scores = append(r.scores, score)
	}
	return r
}

// Len returns the number of scored nodes.
func (r Result) Len() int { return len(r.nodes) }

// Map returns the result as a fresh Scores map the caller owns.
func (r Result) Map() Scores {
	s := make(Scores, len(r.nodes))
	for i, v := range r.nodes {
		s[v] = r.scores[i]
	}
	return s
}

// Restrict returns the result over the candidate set omega: every
// candidate appears once, with its score here or 0 if r does not list
// it. It does not range-check omega.
func (r Result) Restrict(omega []graph.NodeID) Result {
	slot := make(map[graph.NodeID]int, len(omega))
	nodes := make([]graph.NodeID, 0, len(omega))
	for _, v := range omega {
		if _, ok := slot[v]; !ok {
			slot[v] = len(nodes)
			nodes = append(nodes, v)
		}
	}
	scores := make([]float64, len(nodes))
	for i, v := range r.nodes {
		if j, ok := slot[v]; ok {
			scores[j] = r.scores[i]
		}
	}
	return Result{nodes: nodes, scores: scores}
}

// Top returns the k best entries in rank order (score descending, ties
// by ascending node id), skipping exclude. It is the one ranking
// function: a bounded heap of the k best seen so far, rooted at the
// worst of them, so a pass costs O(n log k) time and O(k) memory
// rather than sorting all n entries. k <= 0 yields an empty result; k
// beyond the result's size yields every entry.
func (r Result) Top(exclude graph.NodeID, k int) []TopKResult {
	if k <= 0 || len(r.nodes) == 0 {
		return nil
	}
	h := topHeap(make([]TopKResult, 0, min(k, len(r.nodes))))
	for i, v := range r.nodes {
		if score := r.scores[i]; v != exclude && h.wants(v, score, k) {
			h.keep(TopKResult{Node: v, Score: score}, k)
		}
	}
	return h.ranked()
}

// identity holds the longest all-nodes list [0, n) built so far. A
// list is never written once built, so every result over all nodes
// shares a prefix of one as its node list.
var identity struct {
	sync.Mutex
	nodes []graph.NodeID
}

// identityNodes returns the read-only list [0, n).
func identityNodes(n int) []graph.NodeID {
	identity.Lock()
	defer identity.Unlock()
	if len(identity.nodes) < n {
		identity.nodes = make([]graph.NodeID, n)
		for v := range identity.nodes {
			identity.nodes[v] = graph.NodeID(v)
		}
	}
	return identity.nodes[:n:n]
}

// resultNodes returns the node list of the results of an estimate whose
// candidate list was cand: cand itself for all nodes (the shared
// identity), otherwise a sorted copy of omega without repeats, since a
// candidate listed twice has one score.
func resultNodes(omega, cand []graph.NodeID) []graph.NodeID {
	if omega == nil {
		return cand
	}
	nodes := slices.Clone(omega)
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// result copies the source's dense window at nodes into a Result.
func (pr *srcPrep) result(nodes []graph.NodeID) Result {
	scores := make([]float64, len(nodes))
	for i, v := range nodes {
		scores[i] = pr.dense[v]
	}
	return Result{nodes: nodes, scores: scores}
}
