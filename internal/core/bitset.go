package core

import (
	"math/bits"

	"crashsim/internal/graph"
)

// nodeBitset is a fixed-size bitset over dense node ids. The zero-score
// prefilter and CrashSim-T's affected-area computation use it in place
// of map[NodeID]struct{} visited sets: membership is one load + AND, and
// the backing []uint64 recycles through the query scratch pool instead
// of re-growing a hash table per query.
type nodeBitset []uint64

// newNodeBitset returns a zeroed bitset able to hold n bits, reusing
// buf's storage when it is large enough.
func newNodeBitset(buf []uint64, n int) nodeBitset {
	words := (n + 63) / 64
	b := grow(buf, words)
	clear(b)
	return nodeBitset(b)
}

// Has reports whether v is in the set.
func (b nodeBitset) Has(v graph.NodeID) bool {
	return b[uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// Add inserts v and reports whether it was newly added.
func (b nodeBitset) Add(v graph.NodeID) bool {
	w, bit := uint(v)>>6, uint64(1)<<(uint(v)&63)
	if b[w]&bit != 0 {
		return false
	}
	b[w] |= bit
	return true
}

// appendNodes appends the members of b to out in ascending order.
func (b nodeBitset) appendNodes(out []graph.NodeID) []graph.NodeID {
	for wi, w := range b {
		base := graph.NodeID(wi << 6)
		for w != 0 {
			out = append(out, base+graph.NodeID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// forwardReachBits marks in reach every node reachable from any source
// by following out-edges within depth hops, sources included — one
// multi-source BFS, O(n + m). frontier and next are caller-provided
// buffers (possibly nil) whose grown storage is returned for reuse.
func forwardReachBits(g *graph.Graph, sources []graph.NodeID, depth int, reach nodeBitset, frontier, next []graph.NodeID) (f, nx []graph.NodeID) {
	frontier = frontier[:0]
	for _, s := range sources {
		if reach.Add(s) {
			frontier = append(frontier, s)
		}
	}
	return expandReach(g, depth, reach, frontier, next)
}

// expandReach is forwardReachBits from a frontier already marked in
// reach: it marks every node within depth out-edge hops of it.
func expandReach(g *graph.Graph, depth int, reach nodeBitset, frontier, next []graph.NodeID) (f, nx []graph.NodeID) {
	next = next[:0]
	for d := 0; d < depth && len(frontier) > 0; d++ {
		next = next[:0]
		for _, v := range frontier {
			for _, w := range g.Out(v) {
				if reach.Add(w) {
					next = append(next, w)
				}
			}
		}
		frontier, next = next, frontier
	}
	return frontier, next
}
