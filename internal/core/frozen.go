package core

import (
	"math/bits"

	"crashsim/internal/graph"
)

// FrozenTree is the compiled, immutable query-time form of a ReachTree.
//
// The build-time tree stores each level as a sorted node list, which is
// the right shape for the level-synchronized DP and for CrashSim-T's
// Equal/DiffNodes pruning — but a lookup in it is a binary search, too
// slow for every step of every sampled walk. Freezing compiles the tree
// into flat arrays indexed by node id so Prob(step, v) is one paired
// load, one mask test and at most one indexed read:
//
//   - any: one bit per node, set iff the node has mass at some level.
//     At n/8 bytes this stays cache-resident at any graph size we run,
//     so the common miss — the walk is at a node the source tree never
//     touches — is answered without touching the 16·n-byte lv array.
//   - lv: per node, ⌈(lmax+1)/64⌉ interleaved (mask, rank) word pairs,
//     indexed directly by the global node id. mask bit t is set iff the
//     node has mass at step t; rank is the CSR index in probs of the
//     word's first entry. Global indexing spends 16·n bytes per mask
//     word but keeps the walk kernels' probe chain at a single
//     dependent load before the hit test — there is no node remap to
//     chase, and the common miss (a node the source tree never touches)
//     is an all-zero mask word. Interleaving puts a hit's rank on the
//     same cache line as the mask word that proved the hit.
//   - probs: the non-zero probabilities in (node, step) order. The
//     entry for (v, step) sits at the word's rank plus the popcount of
//     the mask bits below step, so a hit costs one popcount and one
//     float64 load, with no loop even past 64 levels.
//
// Values are the exact float64s of the source tree, so every estimate
// computed against the frozen form is bit-identical to one against the
// build-time tree — the equivalence property test enforces it.
type FrozenTree struct {
	Source graph.NodeID
	Lmax   int

	n         int      // number of nodes the layout covers
	maskWords int      // ⌈(Lmax+1)/64⌉ word pairs per node
	any       []uint64 // n bits: node has mass at some level
	lv        []uint64 // len 2·n·maskWords: interleaved (mask, rank)
	nodes     []graph.NodeID
	probs     []float64
	s1        []step1 // per-node first-step table, see buildStep1
}

// step1 is one entry of the first-step acceleration table: for node w,
// the CSR in-edge bounds of w and the tree's step-1 mass at w — every
// value a walk kernel needs when its first hop lands on w, on one
// 16-byte entry instead of spread over inOff, any, lv and probs.
type step1 struct {
	lo, hi int32
	p      float64
}

// Freeze compiles t for queries on a graph with n nodes. The returned
// tree is immutable and safe for concurrent readers.
func (t *ReachTree) Freeze(n int) *FrozenTree {
	f := &FrozenTree{}
	f.compile(t, n)
	return f
}

// compile fills f from t, reusing f's slices when they are large enough
// (the frozen-tree pool in scratch.go depends on this). It makes two
// passes over t's arena with a sweep of the support bitset between
// them.
func (f *FrozenTree) compile(t *ReachTree, n int) {
	f.Source = t.Source
	f.Lmax = t.Lmax
	f.n = n
	levels := t.NumLevels()
	f.maskWords = max((levels+63)/64, 1)
	mw := f.maskWords

	// Pass 1: level bitmasks and the support bitset. The layout is
	// addressed by global id, so there is no support discovery to do
	// first.
	f.lv = growUint64(f.lv, 2*n*mw)
	clear(f.lv)
	anyB := newNodeBitset(f.any, n)
	for step := 0; step < levels; step++ {
		w, bit := step>>6, uint64(1)<<uint(step&63)
		nodes, _ := t.Level(step)
		for _, v := range nodes {
			f.lv[(int(v)*mw+w)*2] |= bit
			anyB.Add(v)
		}
	}
	f.any = anyB

	// Ranks and the support list: sweeping the support bitset visits
	// the supported nodes in id order, so the CSR is (node, step)-ordered
	// and the support list sorted. Unsupported nodes keep an all-zero
	// mask, so their rank is never read.
	f.nodes = anyB.appendNodes(f.nodes[:0])
	r := uint64(0)
	for _, v := range f.nodes {
		base := int(v) * mw * 2
		for w := 0; w < mw; w++ {
			f.lv[base+w*2+1] = r
			r += uint64(bits.OnesCount64(f.lv[base+w*2]))
		}
	}

	// Pass 2: with the masks complete, the CSR slot of every (node,
	// step) entry is directly computable, so the fill reads the arena
	// in its own step-major order.
	f.probs = growFloat64(f.probs, t.Support())
	for step := 0; step < levels; step++ {
		w, bit := step>>6, uint64(1)<<uint(step&63)
		nodes, probs := t.Level(step)
		for i, v := range nodes {
			wi := (int(v)*mw + w) * 2
			f.probs[int(f.lv[wi+1])+bits.OnesCount64(f.lv[wi]&(bit-1))] = probs[i]
		}
	}
	statFrozenCompiled.Inc()
}

// frozenCarry keeps one compiled FrozenTree alive across CrashSim-T's
// snapshots so tree-stable transitions skip the recompile. Reuse is
// keyed on the run's tree epoch, which CrashSim-T advances whenever it
// replaces the source tree; it keeps the epoch only when the tree is
// bit-identical (an empty delta, or a Patch that detected no bit-level
// change), so an epoch match guarantees the compiled levels are still
// exact. Pointer identity would not: the run recycles tree arenas, so a
// pointer can come back holding a different tree. The per-node
// first-step table additionally depends on the graph's in-CSR, so it is
// refreshed — alone, an O(n) sweep instead of the O(n + support)
// compile — whenever the snapshot version moved under an unchanged
// tree.
type frozenCarry struct {
	ft      *FrozenTree
	epoch   uint64 // tree epoch ft's levels were compiled from
	version uint64 // graph version ft's step-1 table was built against
	pooled  bool
}

// prepare returns the frozen form to run this snapshot's estimate
// against and whether a compile was skipped by reuse: tree, the source
// tree of the given epoch, is compiled unless the carried form already
// matches that epoch.
func (fc *frozenCarry) prepare(g *graph.Graph, tree *ReachTree, epoch uint64) (*FrozenTree, bool) {
	if fc.ft != nil && fc.epoch == epoch {
		if v := g.Version(); v != fc.version {
			fc.ft.buildStep1(g)
			fc.version = v
		}
		return fc.ft, true
	}
	if fc.ft == nil {
		fc.ft = frozenPool.get(fc.pooled)
	}
	fc.ft.compile(tree, g.NumNodes())
	fc.ft.buildStep1(g)
	fc.epoch = epoch
	fc.version = g.Version()
	return fc.ft, false
}

// release returns the carried compiled tree to the pool. The carry must
// not be used afterwards.
func (fc *frozenCarry) release() {
	if fc.ft == nil {
		return
	}
	frozenPool.put(fc.ft, fc.pooled)
	fc.ft = nil
}

// buildStep1 fills the first-step table for walks on g. Every walk's
// first hop draws uniformly from the candidate's in-neighbors, so
// step 1 — the most common step of a geometrically truncated walk — can
// skip the probe chain entirely: the kernels peel it out of the step
// loop and read one s1 entry instead. Must be called after compile and
// before the walk kernels run; the estimators' compile sites do.
func (f *FrozenTree) buildStep1(g *graph.Graph) {
	inOff, _ := g.InCSR()
	n := f.n
	if cap(f.s1) < n {
		f.s1 = make([]step1, n)
	} else {
		f.s1 = f.s1[:n]
	}
	for v := 0; v < n; v++ {
		f.s1[v] = step1{lo: inOff[v], hi: inOff[v+1], p: f.probLive(1, graph.NodeID(v))}
	}
}

// Prob returns the probability that the source's truncated √c-walk is at
// v after step steps — the same value, bit for bit, as the build-time
// ReachTree.Prob. Out-of-range steps and nodes return 0.
func (f *FrozenTree) Prob(step int, v graph.NodeID) float64 {
	if uint(step) >= uint(f.maskWords<<6) || uint(v) >= uint(f.n) {
		return 0
	}
	return f.probLive(step, v)
}

// probLive is Prob without the range guards, for the walk kernels: there
// the step is bounded by the tree's own l_max and v is a node of the
// graph the tree was built on, so both guards are statically satisfied.
// Small enough to inline, which lets the kernels keep the array base
// pointers in registers across steps.
func (f *FrozenTree) probLive(step int, v graph.NodeID) float64 {
	if f.any[int(v)>>6]&(uint64(1)<<uint(v&63)) == 0 {
		return 0
	}
	wi := (int(v)*f.maskWords + step>>6) * 2
	word := f.lv[wi]
	bit := uint64(1) << uint(step&63)
	if word&bit == 0 {
		return 0
	}
	return f.probs[int(f.lv[wi+1])+bits.OnesCount64(word&(bit-1))]
}

// SupportNodes returns the sorted nodes with positive mass at any level
// (the frozen counterpart of ReachTree.Nodes). The slice is shared with
// the tree and must not be modified.
func (f *FrozenTree) SupportNodes() []graph.NodeID { return f.nodes }

// Support returns the number of stored (step, node) entries.
func (f *FrozenTree) Support() int { return len(f.probs) }

// growUint64 and friends return s resized to n, reallocating only when
// the capacity is insufficient. Contents are unspecified.
func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
