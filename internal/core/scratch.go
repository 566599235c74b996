package core

import (
	"crashsim/internal/graph"
	"crashsim/internal/pool"
)

// Query scratch pooling. A query needs dense score windows of length n,
// a candidate list of up to n node ids, the prefilter's BFS state, the
// first-step table of each source and the arena of the reverse
// reachable tree with its probe index.
// Under steady-state service traffic these dominate per-query
// allocations, so they are recycled through pools (pool.Pool), each
// counting its traffic under core.pool.<name>_hits and _misses.
// Pooling is semantically invisible: every buffer is (re)initialized
// on acquire, and the determinism tests assert bit-identical Scores
// from cold pools (emptied by two GCs), warm pools, and across worker
// counts.

// arena is the pooled scratch of the one estimate path (see
// arena.sample): the dense score slab, cut into length-n windows, the
// first-step slab, cut into one length-n table per source, the prepared
// sources, the flattened (source, candidate) work list and the
// prefilter's BFS state. A single-source query, a top-k query (both
// passes), each CrashSim-T snapshot and a whole batch take one arena
// apiece. Its traffic keeps the core.pool.batch_* names it had when
// only batches used it.
type arena struct {
	slab     []float64
	s1       []step1
	preps    []srcPrep
	work     []batchItem
	live     []graph.NodeID // prefilter survivors
	reach    nodeBitset     // prefilter visited set (zeroed lazily by newNodeBitset)
	frontier []graph.NodeID // prefilter BFS frontier
	next     []graph.NodeID // prefilter BFS next frontier
}

// srcPrep is one prepared source of an estimate: its source tree, its
// first-step table, its dense score window and, when the caller wants
// the realized variance, a window that receives each sampled
// candidate's Σx².
type srcPrep struct {
	u     graph.NodeID
	tree  *ReachTree
	s1    []step1
	dense []float64
	sq    []float64
}

// step1 is one entry of a source's first-step table: for node w, the
// CSR in-edge bounds of w and the tree's step-1 mass at w. Every walk's
// first hop draws uniformly from the candidate's in-neighbors, so
// step 1 — the most common step of a geometrically truncated walk —
// skips the probe: the kernel peels it out of the step loop and reads
// one 16-byte entry instead of inOff and the level-1 index row.
type step1 struct {
	lo, hi int32
	p      float64
}

// batchItem is one (source, candidate) unit of the flattened work list;
// src indexes the arena's prepared sources. walks is written by the
// worker that runs the item: the walks it sampled.
type batchItem struct {
	src   int32
	v     graph.NodeID
	walks int32
}

var arenaPool = pool.New[arena]("core.pool.batch")

// acquireArena returns an arena whose slab holds k zeroed windows of
// length n and whose first-step slab holds a table for each of
// sources sources, with no prepared sources. sample resets the work
// list.
func acquireArena(k, sources, n int) *arena {
	a := arenaPool.Get()
	a.slab = grow(a.slab, k*n)
	clear(a.slab)
	a.s1 = grow(a.s1, sources*n)
	a.preps = a.preps[:0]
	return a
}

// window returns the slab's i-th length-n window.
func (a *arena) window(i, n int) []float64 { return a.slab[i*n : (i+1)*n] }

// addSource prepares source u for the estimate against tree, built on
// g: it fills the source's first-step table from level 1 and g's
// in-CSR, and scores into dense (and Σx² into sq, when non-nil). The
// arena reads tree until release; the caller keeps ownership.
func (a *arena) addSource(g *graph.Graph, u graph.NodeID, tree *ReachTree, dense, sq []float64) {
	n := g.NumNodes()
	i := len(a.preps)
	s1 := a.s1[i*n : (i+1)*n]
	inOff, _ := g.InCSR()
	for v := range s1 {
		s1[v] = step1{lo: inOff[v], hi: inOff[v+1]}
	}
	nodes, probs := tree.Level(1)
	for j, v := range nodes {
		s1[v].p = probs[j]
	}
	a.preps = append(a.preps, srcPrep{u: u, tree: tree, s1: s1, dense: dense, sq: sq})
}

// release returns the arena to the pool, dropping the per-source
// pointers first so pooled storage never pins trees that were already
// handed back to their own pools.
func (a *arena) release() {
	clear(a.preps)
	a.preps = a.preps[:0]
	arenaPool.Put(a)
}

// treePool recycles ReachTree arenas, probe index included, so a warm
// query appends into storage already grown to a typical tree's size
// instead of regrowing it level by level. Trees returned by the public
// BuildTree/RevReach API may be retained indefinitely by callers, so
// nothing is pooled automatically: only the callers that fully own the
// tree they build (SingleSourceCtx, TopKCtx, MultiSource,
// SingleSourceWithError, Push) release it, once they are done with it.
// CrashSim-T recycles its source trees itself, within the run (see
// CrashSimTCtx's double buffer), and never releases them here: arenas
// pooled past the run would hold resident memory between queries.
var treePool = pool.New[ReachTree]("core.pool.tree")

// temporalScratch holds CrashSim-T's per-run buffers: the incrementally
// maintained sorted candidate list, the per-snapshot list of
// candidates to recompute, the source tree's diff (as a bitset and as
// the sorted list it sweeps out) and the affected-area BFS state. One
// run reuses them across every snapshot; pooling then recycles them
// across runs.
type temporalScratch struct {
	candidates []graph.NodeID
	recompute  []graph.NodeID
	changed    []uint64
	treeDiff   []graph.NodeID
	reach      []uint64
	frontier   []graph.NodeID
	next       []graph.NodeID
}

var temporalPool = pool.New[temporalScratch]("core.pool.temporal")

func acquireTemporalScratch(n int) *temporalScratch {
	ts := temporalPool.Get()
	if cap(ts.candidates) < n {
		ts.candidates = make([]graph.NodeID, 0, n)
	}
	return ts
}

// revAcc holds RevReach's per-level accumulation state: a dense mass
// array indexed by node id and a bitset recording which entries of acc
// are live this level. acc is only read at indices whose seen bit is set and seen is
// returned all-zero (the extraction sweep clears each word it visits),
// so neither array needs zeroing on acquire beyond first growth.
type revAcc struct {
	acc  []float64
	seen []uint64
}

var revAccPool = pool.New[revAcc]("core.pool.revacc")

func acquireRevAcc(n int) *revAcc {
	ra := revAccPool.Get()
	ra.acc = grow(ra.acc, n)
	ra.seen = grow(ra.seen, (n+63)/64)
	return ra
}

// grow returns s resized to n, reallocating only when the capacity is
// insufficient. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
