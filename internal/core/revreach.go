package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"crashsim/internal/graph"
)

// ReachTree is the output of revReach (Algorithm 2): for every step
// t ∈ [0, lmax] and node x, Prob(t, x) is the probability that the
// truncated √c-walk starting from the source is at x after t steps.
//
// Levels are stored step-major in one flat arena: level t is the node
// list nodes[off[t]:off[t+1]], sorted by id, with the matching masses
// at the same positions of probs. A √c-walk's mass concentrates on the
// reverse neighborhood of the source, so the arena holds only the
// support. All construction is performed in sorted node order so
// probabilities are bit-for-bit deterministic for a given graph, which
// CrashSim-T's tree-equality pruning relies on.
type ReachTree struct {
	Source graph.NodeID
	Lmax   int
	off    []int32 // len NumLevels()+1; level t spans [off[t], off[t+1])
	nodes  []graph.NodeID
	probs  []float64
}

// reset empties t for a new tree of source u, keeping the arena's
// storage.
func (t *ReachTree) reset(u graph.NodeID, lmax int) {
	t.Source, t.Lmax = u, lmax
	t.off = append(t.off[:0], 0)
	t.nodes, t.probs = t.nodes[:0], t.probs[:0]
}

// endLevel closes the level whose entries were appended since the last
// call.
func (t *ReachTree) endLevel() { t.off = append(t.off, int32(len(t.nodes))) }

// Prob returns U[step][v], or 0 when the walk cannot be at v at step.
// It binary-searches the level; the walk kernels read the compiled
// FrozenTree instead.
func (t *ReachTree) Prob(step int, v graph.NodeID) float64 {
	nodes, probs := t.Level(step)
	if i, ok := slices.BinarySearch(nodes, v); ok {
		return probs[i]
	}
	return 0
}

// Level returns the non-zero entries of level step: the nodes in
// ascending id order and their masses at the same positions. Both
// slices are shared with the tree and must not be modified.
func (t *ReachTree) Level(step int) ([]graph.NodeID, []float64) {
	if step < 0 || step >= t.NumLevels() {
		return nil, nil
	}
	lo, hi := t.off[step], t.off[step+1]
	return t.nodes[lo:hi], t.probs[lo:hi]
}

// NumLevels returns the number of stored levels (lmax + 1).
func (t *ReachTree) NumLevels() int { return max(len(t.off)-1, 0) }

// LevelMass returns Σ_x U[step][x]. For the exact transition rule it is
// bounded by (√c)^step, a property the tests verify.
func (t *ReachTree) LevelMass(step int) float64 {
	_, probs := t.Level(step)
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	return sum
}

// Support returns the number of (step, node) entries with positive mass.
func (t *ReachTree) Support() int { return len(t.nodes) }

// Equal reports whether two trees have the same support and probabilities
// within tol (use tol = 0 for exact equality; CrashSim-T uses a small
// tolerance because adjacency enumeration order may differ between
// otherwise identical snapshots).
func (t *ReachTree) Equal(o *ReachTree, tol float64) bool {
	if o == nil || !slices.Equal(t.off, o.off) || !slices.Equal(t.nodes, o.nodes) {
		return false
	}
	for i, pa := range t.probs {
		if math.Abs(pa-o.probs[i]) > tol {
			return false
		}
	}
	return true
}

// DiffNodes returns the sorted set of nodes whose probability differs
// from o's by more than tol at any level (including nodes present in
// only one tree). CrashSim-T's delta pruning treats the forward reach of
// these nodes as affected: a candidate whose walks cannot hit a changed
// tree entry sees identical crash probabilities. Each level is compared
// by one merge of the two sorted node lists.
func (t *ReachTree) DiffNodes(o *ReachTree, tol float64) []graph.NodeID {
	if o == nil {
		o = &ReachTree{}
	}
	var out []graph.NodeID
	for step := 0; step < max(t.NumLevels(), o.NumLevels()); step++ {
		an, ap := t.Level(step)
		bn, bp := o.Level(step)
		i, j := 0, 0
		for i < len(an) || j < len(bn) {
			switch {
			case j == len(bn) || (i < len(an) && an[i] < bn[j]):
				out = append(out, an[i])
				i++
			case i == len(an) || bn[j] < an[i]:
				out = append(out, bn[j])
				j++
			default:
				if math.Abs(ap[i]-bp[j]) > tol {
					out = append(out, an[i])
				}
				i++
				j++
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ApproxBytes estimates t's heap footprint for byte-accounted caching:
// the struct plus the arena's three slices at their capacity.
func (t *ReachTree) ApproxBytes() int64 {
	return 64 + 4*int64(cap(t.off)) + 4*int64(cap(t.nodes)) + 8*int64(cap(t.probs))
}

// Patch derives the reverse reachable tree of t.Source on g from t, the
// tree of the previous snapshot, where g differs from that snapshot by
// exactly the given edge delta. Only the affected region is re-expanded:
// the delta's endpoints seed a reverse (in-edge) BFS of depth Lmax, and
// every level's masses are recomputed for affected nodes only while
// unaffected entries are copied from t.
//
// The patched tree is written into dst, an arena the caller owns: its
// previous contents are discarded and its storage reused, so a caller
// that alternates two arenas (CrashSim-T's double buffer) patches
// without allocating once they have grown. dst must not be t; a nil dst
// allocates a fresh arena.
//
// The patched tree is bit-identical to a full RevReach on g. The level
// DP sums a receiver's in-flowing mass in ascending pusher order, and a
// node outside the affected closure has the same contributing pushers,
// the same pusher masses and the same per-edge weights on both
// snapshots — so restricting the re-push to affected receivers (while
// still visiting pushers in full sorted level order) reproduces the
// exact floating-point summation of the rebuild. The equivalence test
// enforces this with tolerance zero.
//
// The second result is the sorted set of nodes whose probability moved
// by more than tol at any level (including appear/vanish) — the same
// contract as DiffNodes against a fresh rebuild, computed as a
// byproduct instead of a second full-tree sweep. When no entry changed
// at the bit level, Patch returns t itself and dst holds nothing the
// caller needs, so it stays free for the next patch.
//
// ok is false when patching does not apply and the caller must fall
// back to a full rebuild: non-backtracking trees, an Lmax mismatch, or
// an affected closure larger than gate × t.Support() — past that point
// a rebuild is cheaper than a patch that re-expands most of the tree.
// p must already have defaults applied (CrashSim-T passes its resolved
// Params).
func (t *ReachTree) Patch(dst *ReachTree, g *graph.Graph, add, del []graph.Edge, p Params, tol, gate float64) (*ReachTree, []graph.NodeID, bool) {
	if p.NonBacktracking || t.Lmax != p.Lmax || t.NumLevels() != p.Lmax+1 {
		return nil, nil, false
	}
	n := g.NumNodes()
	ps := acquirePatchScratch(n)
	defer releasePatchScratch(ps)

	// Affected closure: a node's level value can change only if it is
	// the tail of a changed edge (its out-list changed), pushes through a
	// changed in-list (a head), or reaches such a node against the edge
	// direction within Lmax hops — mass flows from a node to its
	// in-neighbors, so being affected propagates the same way. Seeding
	// every endpoint of every changed edge covers all three cases for
	// directed and undirected graphs alike.
	affected := newNodeBitset(ps.affected, n)
	frontier, next := ps.frontier[:0], ps.next[:0]
	for _, set := range [][]graph.Edge{add, del} {
		for _, e := range set {
			if affected.Add(e.X) {
				frontier = append(frontier, e.X)
			}
			if affected.Add(e.Y) {
				frontier = append(frontier, e.Y)
			}
		}
	}
	budget := int(gate * float64(t.Support()))
	count := len(frontier)
	bail := func() bool { return count > budget }
	for d := 0; d < p.Lmax && len(frontier) > 0 && !bail(); d++ {
		next = next[:0]
		for _, x := range frontier {
			for _, v := range g.In(x) {
				if affected.Add(v) {
					next = append(next, v)
					count++
				}
			}
		}
		frontier, next = next, frontier
	}
	ps.affected, ps.frontier, ps.next = affected, frontier, next
	if bail() {
		return nil, nil, false
	}

	// Pushers: the nodes whose level mass must be re-pushed because some
	// in-neighbor is an affected receiver — exactly Out(affected). Every
	// other node's pushes land only on unaffected receivers, whose
	// entries are copied, so those pushes are skipped wholesale.
	pushers := newNodeBitset(ps.pushers, n)
	for wi, w := range affected {
		base := graph.NodeID(wi << 6)
		for w != 0 {
			v := base + graph.NodeID(bits.TrailingZeros64(w))
			w &= w - 1
			for _, x := range g.Out(v) {
				pushers.Add(x)
			}
		}
	}
	ps.pushers = pushers

	sc := math.Sqrt(p.C)
	nt := dst
	if nt == nil {
		nt = new(ReachTree)
	}
	nt.reset(t.Source, t.Lmax)
	// A patch moves few entries, so t's support sizes the arena: a
	// fresh or smaller dst grows once here instead of level by level.
	nt.nodes = slices.Grow(nt.nodes, t.Support())
	nt.probs = slices.Grow(nt.probs, t.Support())
	nt.nodes = append(nt.nodes, t.Source)
	nt.probs = append(nt.probs, 1)
	nt.endLevel()
	acc := ps.acc
	rseen := newNodeBitset(ps.rseen, n)
	levelBits := nodeBitset(growUint64(ps.levelBits, len(rseen)))
	changed := newNodeBitset(ps.changed, n)
	bitSame := true
	for step := 0; step < p.Lmax; step++ {
		// Restricted push: walk the new level's full sorted support (so
		// affected receivers accumulate in rebuild order), but only
		// pushers do per-edge work and only affected receivers are
		// written.
		order, masses := nt.Level(step)
		for i, x := range order {
			if !pushers.Has(x) {
				continue
			}
			in := g.In(x)
			if len(in) == 0 {
				continue
			}
			mass := masses[i]
			switch p.Transition {
			case TransitionExact:
				w := mass * sc / float64(len(in))
				for _, v := range in {
					if !affected.Has(v) {
						continue
					}
					if rseen.Add(v) {
						acc[v] = w
					} else {
						acc[v] += w
					}
				}
			case TransitionPaperLiteral:
				for _, v := range in {
					if !affected.Has(v) {
						continue
					}
					deg := g.InDegree(v)
					if deg == 0 {
						continue
					}
					w := mass * sc / float64(deg)
					if rseen.Add(v) {
						acc[v] = w
					} else {
						acc[v] += w
					}
				}
			}
		}

		// Assemble the new level: affected receivers from the push above
		// (their bits are already in rseen), unaffected entries copied
		// from the old level. Vanished and value-changed affected
		// entries feed the diff; appearances are caught in the sweep,
		// which merges against the old level's sorted node list.
		oldNodes, oldProbs := t.Level(step + 1)
		copy(levelBits, rseen)
		for i, v := range oldNodes {
			if !affected.Has(v) {
				levelBits.Add(v)
				continue
			}
			if !rseen.Has(v) {
				changed.Add(v)
				bitSame = false
			} else if math.Float64bits(acc[v]) != math.Float64bits(oldProbs[i]) {
				bitSame = false
				if math.Abs(acc[v]-oldProbs[i]) > tol {
					changed.Add(v)
				}
			}
		}
		j := 0
		for wi, w := range levelBits {
			if w == 0 {
				continue
			}
			levelBits[wi] = 0
			base := graph.NodeID(wi << 6)
			for w != 0 {
				v := base + graph.NodeID(bits.TrailingZeros64(w))
				w &= w - 1
				for j < len(oldNodes) && oldNodes[j] < v {
					j++
				}
				var pv float64
				if rseen.Has(v) {
					pv = acc[v]
					if j == len(oldNodes) || oldNodes[j] != v {
						changed.Add(v) // appeared
						bitSame = false
					}
				} else {
					pv = oldProbs[j] // unaffected: copied from the old level
				}
				nt.nodes = append(nt.nodes, v)
				nt.probs = append(nt.probs, pv)
			}
		}
		nt.endLevel()
		clear(rseen)
	}
	ps.acc, ps.rseen, ps.levelBits, ps.changed = acc, rseen, levelBits, changed

	if bitSame {
		// The snapshot change never reached the tree: hand the caller the
		// old tree back, so downstream reuse (the frozen-form carry) stays
		// engaged and dst stays free.
		return t, nil, true
	}
	return nt, changed.appendNodes(nil), true
}

// Nodes returns the sorted set of nodes with positive mass at any level.
// CrashSim-T's delta pruning treats these as part (i) of the affected
// area of the source.
func (t *ReachTree) Nodes() []graph.NodeID {
	n := 0
	for _, v := range t.nodes {
		n = max(n, int(v)+1)
	}
	seen := newNodeBitset(nil, n)
	for _, v := range t.nodes {
		seen.Add(v)
	}
	return seen.appendNodes(make([]graph.NodeID, 0, len(t.nodes)))
}

// adjacency abstracts the two graph representations revReach runs on:
// immutable CSR snapshots and the mutable working graph of a temporal
// cursor.
type adjacency interface {
	NumNodes() int
	In(v graph.NodeID) []graph.NodeID
	InDegree(v graph.NodeID) int
}

// RevReach builds the reverse reachable tree of u (Algorithm 2) with the
// given decay factor, truncation length and transition rule, using a
// level-synchronized dynamic program: level t+1 is derived from level t
// by pushing each node's mass to its in-neighbors. The cost is
// O(l_max · m) in the worst case and proportional to the touched
// neighborhood in practice.
func RevReach(g adjacency, u graph.NodeID, c float64, lmax int, rule TransitionRule) *ReachTree {
	// The arena comes from the scratch pool: SingleSourceCtx releases
	// the tree after its estimate, so repeated queries append into
	// storage already grown to a typical tree's size.
	return revReachInto(acquireTree(u, lmax), g, u, c, lmax, rule)
}

// revReachInto is RevReach into the caller's arena t, whose previous
// contents are discarded.
func revReachInto(t *ReachTree, g adjacency, u graph.NodeID, c float64, lmax int, rule TransitionRule) *ReachTree {
	sc := math.Sqrt(c)
	t.reset(u, lmax)
	t.nodes = append(t.nodes, u)
	t.probs = append(t.probs, 1)
	t.endLevel()
	// Mass for the next level accumulates in a pooled dense array: the
	// additions happen in sorted-source order (in-edge order within a
	// source), so each level's values are bit-deterministic. The sorted
	// order comes for free: sweeping the seen bitset in word order
	// yields the touched nodes ascending, so the sweep appends each
	// level to the arena already sorted and the next push reads the
	// level straight back from it.
	ra := acquireRevAcc(g.NumNodes())
	acc, seen := ra.acc, ra.seen
	for step := 0; step < lmax; step++ {
		order, masses := t.Level(step)
		for i, x := range order {
			in := g.In(x)
			if len(in) == 0 {
				continue
			}
			mass := masses[i]
			switch rule {
			case TransitionExact:
				w := mass * sc / float64(len(in))
				for _, v := range in {
					if bit := uint64(1) << uint(v&63); seen[v>>6]&bit == 0 {
						seen[v>>6] |= bit
						acc[v] = w
					} else {
						acc[v] += w
					}
				}
			case TransitionPaperLiteral:
				for _, v := range in {
					deg := g.InDegree(v)
					if deg == 0 {
						continue
					}
					w := mass * sc / float64(deg)
					if bit := uint64(1) << uint(v&63); seen[v>>6]&bit == 0 {
						seen[v>>6] |= bit
						acc[v] = w
					} else {
						acc[v] += w
					}
				}
			}
		}
		for wi, w := range seen {
			if w == 0 {
				continue
			}
			seen[wi] = 0
			base := graph.NodeID(wi << 6)
			for w != 0 {
				v := base + graph.NodeID(bits.TrailingZeros64(w))
				w &= w - 1
				t.nodes = append(t.nodes, v)
				t.probs = append(t.probs, acc[v])
			}
		}
		t.endLevel()
	}
	ra.acc, ra.seen = acc, seen
	releaseRevAcc(ra)
	return t
}

// RevReachNonBacktracking builds the tree over the non-backtracking
// variant of the √c-walk that Algorithm 2 line 9 describes: the walk
// never immediately returns to the node it just came from. States are
// (node, parent) pairs, so the cost grows with the number of touched
// edges rather than nodes. Node-level marginals are returned in the same
// ReachTree shape: each level's states are sorted by (node, parent) and
// a node's mass is summed over its states in that order, so the tree is
// bit-deterministic like RevReach's. Combined with
// TransitionPaperLiteral this reproduces the paper's Example 2 numbers
// exactly; it is otherwise an ablation.
func RevReachNonBacktracking(g adjacency, u graph.NodeID, c float64, lmax int, rule TransitionRule) *ReachTree {
	type state struct{ node, parent graph.NodeID }
	sortStates := func(order []state) {
		slices.SortFunc(order, func(a, b state) int {
			if a.node != b.node {
				return cmp.Compare(a.node, b.node)
			}
			return cmp.Compare(a.parent, b.parent)
		})
	}
	sc := math.Sqrt(c)
	t := acquireTree(u, lmax)
	t.nodes = append(t.nodes, u)
	t.probs = append(t.probs, 1)
	t.endLevel()
	cur := map[state]float64{{node: u, parent: -1}: 1}
	var order []state
	for step := 0; step < lmax; step++ {
		next := make(map[state]float64, len(cur)*2)
		order = order[:0]
		for s := range cur {
			order = append(order, s)
		}
		sortStates(order)
		for _, s := range order {
			in := g.In(s.node)
			// Candidate next hops exclude the parent.
			avail := 0
			for _, v := range in {
				if v != s.parent {
					avail++
				}
			}
			if avail == 0 {
				continue
			}
			mass := cur[s]
			for _, v := range in {
				if v == s.parent {
					continue
				}
				var w float64
				switch rule {
				case TransitionPaperLiteral:
					deg := g.InDegree(v)
					if deg == 0 {
						continue
					}
					w = mass * sc / float64(deg)
				default:
					w = mass * sc / float64(avail)
				}
				next[state{node: v, parent: s.node}] += w
			}
		}
		order = order[:0]
		for s := range next {
			order = append(order, s)
		}
		sortStates(order)
		for i, s := range order {
			if i > 0 && order[i-1].node == s.node {
				t.probs[len(t.probs)-1] += next[s]
				continue
			}
			t.nodes = append(t.nodes, s.node)
			t.probs = append(t.probs, next[s])
		}
		t.endLevel()
		cur = next
	}
	return t
}
