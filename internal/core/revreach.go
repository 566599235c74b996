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
// CrashSim-T's tree diff relies on.
//
// Next to the arena sits the probe index the walk kernels read, laid
// out level-major like the arena itself: for each level t, words
// interleaved (bitset word, rank) pairs over the graph's node ids. Bit
// v&63 of word v>>6 is set iff v is in level t, and the word's rank is
// the arena position of its first member, so U[t][v] is one word test,
// one popcount and one load from probs. A walk at step t touches only
// level t's row. The level sweeps that build the arena visit every
// bitset word in order and write the row as they go. Trees built by
// Push, which only reads their levels, carry no index: words is 0 and
// Prob answers 0.
type ReachTree struct {
	Source graph.NodeID
	Lmax   int
	off    []int32 // len NumLevels()+1; level t spans [off[t], off[t+1])
	nodes  []graph.NodeID
	probs  []float64
	words  int      // ⌈n/64⌉ index words per level; 0 for an unindexed tree
	idx    []uint64 // len 2·words·NumLevels(): per level, (bitset word, rank) pairs
}

// indexWords returns the index words per level for a graph of n nodes.
func indexWords(n int) int { return (n + 63) / 64 }

// reset empties t for a new tree of source u, keeping the arena's
// storage, and sizes the probe index for words words per level (0 for
// no index). Every index word is rewritten by the build, so none is
// cleared here.
func (t *ReachTree) reset(u graph.NodeID, lmax, words int) {
	t.Source, t.Lmax, t.words = u, lmax, words
	t.off = append(t.off[:0], 0)
	t.nodes, t.probs = t.nodes[:0], t.probs[:0]
	t.idx = grow(t.idx, 2*words*(lmax+1))
}

// endLevel closes the level whose entries were appended since the last
// call.
func (t *ReachTree) endLevel() { t.off = append(t.off, int32(len(t.nodes))) }

// row returns level step's slice of the probe index.
func (t *ReachTree) row(step int) []uint64 {
	return t.idx[2*t.words*step : 2*t.words*(step+1)]
}

// indexLevel writes level step's index row from the arena. The level
// sweeps write their rows inline; this pass serves the one-node level 0
// and RevReachNonBacktracking, whose levels come out of a sort.
func (t *ReachTree) indexLevel(step int) {
	row := t.row(step)
	clear(row)
	nodes, _ := t.Level(step)
	for _, v := range nodes {
		row[2*(v>>6)] |= 1 << uint(v&63)
	}
	r := uint64(t.off[step])
	for wi := 0; wi < len(row); wi += 2 {
		row[wi+1] = r
		r += uint64(bits.OnesCount64(row[wi]))
	}
}

// Prob returns U[step][v], or 0 when the walk cannot be at v at step
// (out-of-range steps and nodes included). It reads the probe index,
// the way the walk kernels do.
func (t *ReachTree) Prob(step int, v graph.NodeID) float64 {
	if uint(step) >= uint(t.NumLevels()) || uint(v)>>6 >= uint(t.words) {
		return 0
	}
	wi := 2 * (t.words*step + int(v>>6))
	word, bit := t.idx[wi], uint64(1)<<uint(v&63)
	if word&bit == 0 {
		return 0
	}
	return t.probs[int(t.idx[wi+1])+bits.OnesCount64(word&(bit-1))]
}

// orLevels sets in dst, a bitset over the graph's nodes, every node
// with mass at some level: the OR of the index rows.
func (t *ReachTree) orLevels(dst nodeBitset) {
	for step := 0; step < t.NumLevels(); step++ {
		row := t.row(step)
		for wi := range dst {
			dst[wi] |= row[2*wi]
		}
	}
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

// diffInto marks in changed, which it clears first, every node whose
// mass differs from prev's by more than tol at some level, nodes present
// at a level of only one tree included. CrashSim-T's delta pruning treats the forward reach of these nodes as
// affected: a candidate whose walks cannot hit a changed tree entry sees
// identical crash probabilities. Each level is compared by one merge of
// the two sorted node lists. same reports whether the trees are bit for
// bit identical: the same levels, nodes and probability bits. changed
// must cover every node id of both trees.
func (t *ReachTree) diffInto(prev *ReachTree, tol float64, changed nodeBitset) (same bool) {
	clear(changed)
	same = t.NumLevels() == prev.NumLevels()
	for step := 0; step < max(t.NumLevels(), prev.NumLevels()); step++ {
		an, ap := t.Level(step)
		bn, bp := prev.Level(step)
		i, j := 0, 0
		for i < len(an) || j < len(bn) {
			switch {
			case j == len(bn) || (i < len(an) && an[i] < bn[j]):
				changed.Add(an[i])
				same = false
				i++
			case i == len(an) || bn[j] < an[i]:
				changed.Add(bn[j])
				same = false
				j++
			default:
				if math.Float64bits(ap[i]) != math.Float64bits(bp[j]) {
					same = false
					if math.Abs(ap[i]-bp[j]) > tol {
						changed.Add(an[i])
					}
				}
				i++
				j++
			}
		}
	}
	return same
}

// Direction selects the edges the level push follows from each pusher.
type Direction uint8

const (
	// InEdges pushes a node's mass to its in-neighbors, the reverse step
	// of a √c-walk: revReach (Algorithm 2) and SLING's h_ℓ(v, ·).
	InEdges Direction = iota
	// OutEdges pushes a node's mass to its out-neighbors: PRSim's
	// tables h_ℓ(·, w), read from w's side.
	OutEdges
)

// RevReach builds the reverse reachable tree of u (Algorithm 2) with the
// given decay factor, truncation length and transition rule, using a
// level-synchronized dynamic program: level t+1 is derived from level t
// by pushing each node's mass to its in-neighbors. The cost is
// O(l_max · m) in the worst case and proportional to the touched
// neighborhood in practice.
func RevReach(g *graph.Graph, u graph.NodeID, c float64, lmax int, rule TransitionRule) *ReachTree {
	// The arena comes from the scratch pool: SingleSourceCtx releases
	// the tree after its estimate, so repeated queries append into
	// storage already grown to a typical tree's size.
	return revReachInto(treePool.Get(), g, u, c, lmax, rule, 0, InEdges, true)
}

// Push runs the level push of revReach from u along dir, dropping every
// contribution below tau, into a pooled arena without a probe index,
// and hands the finished tree to use. The tree and its levels are valid
// only during the call. SLING's per-node distributions and PRSim's
// tables are this push with their own rule, threshold and direction.
func Push(g *graph.Graph, u graph.NodeID, c float64, lmax int, rule TransitionRule, tau float64, dir Direction, use func(t *ReachTree)) {
	t := revReachInto(treePool.Get(), g, u, c, lmax, rule, tau, dir, false)
	use(t)
	treePool.Put(t)
}

// revReachInto is the one level push, into the caller's arena t, whose
// previous contents are discarded. Each pusher x of level ℓ sends
// mass·√c/deg along every edge dir follows from x, where deg is the
// number of those edges under TransitionExact and the receiver's
// in-degree under TransitionPaperLiteral; a contribution below tau is
// dropped (tau = 0 keeps all of them). Under the exact rule every edge
// of a pusher carries the same contribution, so tau is tested once per
// pusher. An empty level ends the push, since every later level is
// empty too; the remaining levels are closed empty, so the tree always
// has lmax+1 levels. indexed selects whether the probe index is
// written; a tree that is only read level by level, never walked, goes
// without.
func revReachInto(t *ReachTree, g *graph.Graph, u graph.NodeID, c float64, lmax int, rule TransitionRule, tau float64, dir Direction, indexed bool) *ReachTree {
	sc := math.Sqrt(c)
	words := 0
	if indexed {
		words = indexWords(g.NumNodes())
	}
	t.reset(u, lmax, words)
	t.nodes = append(t.nodes, u)
	t.probs = append(t.probs, 1)
	t.endLevel()
	if indexed {
		t.indexLevel(0)
	}
	// Mass for the next level accumulates in a pooled dense array: the
	// additions happen in sorted-source order (edge order within a
	// source), so each level's values are bit-deterministic. The sorted
	// order comes for free: sweeping the seen bitset in word order
	// yields the touched nodes ascending, so the sweep appends each
	// level to the arena already sorted and the next push reads the
	// level straight back from it. The same sweep writes the level's
	// index row: each seen word is the row's bitset word, and the arena
	// length before its members are appended is its rank.
	ra := acquireRevAcc(g.NumNodes())
	acc, seen := ra.acc, ra.seen
	for step := 0; step < lmax; step++ {
		order, masses := t.Level(step)
		if len(order) == 0 {
			for ; step < lmax; step++ {
				t.endLevel()
				if indexed {
					t.indexLevel(step + 1)
				}
			}
			break
		}
		for i, x := range order {
			var adj []graph.NodeID
			if dir == InEdges {
				adj = g.In(x)
			} else {
				adj = g.Out(x)
			}
			if len(adj) == 0 {
				continue
			}
			mass := masses[i]
			switch rule {
			case TransitionExact:
				w := mass * sc / float64(len(adj))
				if w < tau {
					continue
				}
				for _, v := range adj {
					if bit := uint64(1) << uint(v&63); seen[v>>6]&bit == 0 {
						seen[v>>6] |= bit
						acc[v] = w
					} else {
						acc[v] += w
					}
				}
			case TransitionPaperLiteral:
				for _, v := range adj {
					deg := g.InDegree(v)
					if deg == 0 {
						continue
					}
					w := mass * sc / float64(deg)
					if w < tau {
						continue
					}
					if bit := uint64(1) << uint(v&63); seen[v>>6]&bit == 0 {
						seen[v>>6] |= bit
						acc[v] = w
					} else {
						acc[v] += w
					}
				}
			}
		}
		var row []uint64
		if indexed {
			row = t.row(step + 1)
		}
		for wi, w := range seen {
			if indexed {
				row[2*wi], row[2*wi+1] = w, uint64(len(t.nodes))
			}
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
	revAccPool.Put(ra)
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
// exactly; it is otherwise an ablation. The probe index is written in
// one pass per level once the level is in the arena.
func RevReachNonBacktracking(g *graph.Graph, u graph.NodeID, c float64, lmax int, rule TransitionRule) *ReachTree {
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
	t := treePool.Get()
	t.reset(u, lmax, indexWords(g.NumNodes()))
	t.nodes = append(t.nodes, u)
	t.probs = append(t.probs, 1)
	t.endLevel()
	t.indexLevel(0)
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
		t.indexLevel(step + 1)
		cur = next
	}
	return t
}
