package core

import (
	"sync"

	"crashsim/internal/graph"
)

// Query scratch pooling. A single-source query needs a dense score
// array of length n, a candidate list of up to n node ids, the
// prefilter's BFS state, the arena of the reverse reachable tree and
// its compiled form.
// Under steady-state service traffic these dominate per-query
// allocations, so they are recycled through sync.Pools. Pooling is
// semantically invisible: every buffer is (re)initialized on acquire,
// and the determinism tests assert bit-identical Scores with pooling
// enabled, disabled, and across worker counts.

// scratch bundles the per-query buffers of estimate.
type scratch struct {
	dense    []float64      // per-node accumulated scores, zeroed on acquire
	omega    []graph.NodeID // identity candidate list when the caller passes nil
	live     []graph.NodeID // prefilter survivors
	reach    nodeBitset     // prefilter visited set (zeroed lazily by newNodeBitset)
	frontier []graph.NodeID // prefilter BFS frontier
	next     []graph.NodeID // prefilter BFS next frontier
}

// The pools have no New functions: Get returning nil distinguishes a
// pool hit from a miss, feeding the core.pool.* hit/miss counters.
var scratchPool sync.Pool

// acquireScratch returns a scratch whose dense array has length n and
// is zeroed. With pooling disabled it simply allocates fresh buffers.
func acquireScratch(n int, pooled bool) *scratch {
	var s *scratch
	if pooled {
		if v := scratchPool.Get(); v != nil {
			s = v.(*scratch)
			statScratchHits.Inc()
		} else {
			s = new(scratch)
			statScratchMisses.Inc()
		}
	} else {
		s = new(scratch)
	}
	if cap(s.dense) < n {
		s.dense = make([]float64, n)
	} else {
		s.dense = s.dense[:n]
		clear(s.dense)
	}
	return s
}

// release returns the scratch to the pool (no-op when pooling is off).
func (s *scratch) release(pooled bool) {
	if !pooled {
		return
	}
	scratchPool.Put(s)
}

// identity fills and returns the all-nodes candidate list [0, n).
func (s *scratch) identity(n int) []graph.NodeID {
	if cap(s.omega) < n {
		s.omega = make([]graph.NodeID, n)
	}
	s.omega = s.omega[:n]
	for v := range s.omega {
		s.omega[v] = graph.NodeID(v)
	}
	return s.omega
}

// srcPrep is one unique source's prepared state within a batch: its
// compiled source tree and this source's dense score window of the
// shared slab.
type srcPrep struct {
	u     graph.NodeID
	ft    *FrozenTree
	dense []float64
}

// batchItem is one (source, candidate) unit of MultiSource's flattened
// work list; src indexes the batch's unique-source prep table.
type batchItem struct {
	src int32
	v   graph.NodeID
}

// batchScratch bundles the per-batch buffers of MultiSource: the shared
// dense score slab (k disjoint windows of length n, one per unique
// source), the flattened work list, the per-source prep records, and an
// embedded scratch providing the prefilter BFS state and the identity
// candidate list — one arena acquisition per batch instead of one
// scratch per source.
type batchScratch struct {
	slab  []float64
	work  []batchItem
	preps []srcPrep
	sc    scratch
}

var batchScratchPool sync.Pool

// acquireBatchScratch returns a batchScratch whose slab covers k
// sources of n nodes each, zeroed, with empty work and prep lists.
func acquireBatchScratch(k, n int, pooled bool) *batchScratch {
	var bs *batchScratch
	if pooled {
		if v := batchScratchPool.Get(); v != nil {
			bs = v.(*batchScratch)
			statBatchScratchHits.Inc()
		} else {
			bs = new(batchScratch)
			statBatchScratchMisses.Inc()
		}
	} else {
		bs = new(batchScratch)
	}
	need := k * n
	if cap(bs.slab) < need {
		bs.slab = make([]float64, need)
	} else {
		bs.slab = bs.slab[:need]
		clear(bs.slab)
	}
	bs.work = bs.work[:0]
	bs.preps = bs.preps[:0]
	return bs
}

// release returns the arena to the pool, dropping the per-source
// pointers first so pooled storage never pins trees that were already
// handed back to their own pools.
func (bs *batchScratch) release(pooled bool) {
	if !pooled {
		return
	}
	for i := range bs.preps {
		bs.preps[i] = srcPrep{}
	}
	bs.preps = bs.preps[:0]
	batchScratchPool.Put(bs)
}

// treePool recycles ReachTree arenas. Trees returned by the public
// BuildTree/RevReach API may be retained indefinitely by callers, so
// nothing is pooled automatically: only the callers that fully own the
// tree they build (SingleSourceCtx, TopKCtx, MultiSource) release it.
// CrashSim-T recycles its source trees itself, within the run (see
// ReachTree.Patch), and never releases them here: arenas pooled past
// the run would hold resident memory between queries.
var treePool sync.Pool

// acquireTree returns an empty ReachTree for source u, reusing a pooled
// arena (a warm query appends into storage already grown to a typical
// tree's size instead of regrowing it level by level).
func acquireTree(u graph.NodeID, lmax int) *ReachTree {
	var t *ReachTree
	if v := treePool.Get(); v != nil {
		t = v.(*ReachTree)
		statTreeHits.Inc()
	} else {
		t = new(ReachTree)
		statTreeMisses.Inc()
	}
	t.reset(u, lmax)
	return t
}

// releaseTree returns t's arena to the pool. The caller must not use t
// afterwards.
func releaseTree(t *ReachTree, pooled bool) {
	if !pooled || t == nil {
		return
	}
	treePool.Put(t)
}

// patchScratch holds ReachTree.Patch's working state: the affected and
// pusher closures, the per-level receiver/membership/changed bitsets
// and the dense accumulator (the sorted level lists live in the trees'
// arenas). One Patch call touches all of them, so they pool as a unit.
// Like revAcc, nothing is zeroed on acquire beyond first growth: the
// bitsets are re-zeroed through newNodeBitset and acc is only read at
// freshly written indices.
type patchScratch struct {
	affected  []uint64
	pushers   []uint64
	rseen     []uint64
	levelBits []uint64
	changed   []uint64
	acc       []float64
	frontier  []graph.NodeID
	next      []graph.NodeID
}

var patchScratchPool sync.Pool

func acquirePatchScratch(n int) *patchScratch {
	var ps *patchScratch
	if v := patchScratchPool.Get(); v != nil {
		ps = v.(*patchScratch)
		statPatchHits.Inc()
	} else {
		ps = new(patchScratch)
		statPatchMisses.Inc()
	}
	if cap(ps.acc) < n {
		ps.acc = make([]float64, n)
	} else {
		ps.acc = ps.acc[:n]
	}
	return ps
}

func releasePatchScratch(ps *patchScratch) { patchScratchPool.Put(ps) }

// temporalScratch holds CrashSim-T's per-run buffers: the incrementally
// maintained sorted candidate list, the per-snapshot pruning decision
// arrays, the Ω-membership bitset behind countOmegaEdges and the
// affected-area BFS state. One run reuses them across every snapshot;
// pooling then recycles them across runs.
type temporalScratch struct {
	candidates []graph.NodeID
	recompute  []graph.NodeID
	sources    []graph.NodeID
	dec        []uint8
	dd         []diffDecision
	omegaBits  []uint64
	reach      []uint64
	frontier   []graph.NodeID
	next       []graph.NodeID
}

var temporalScratchPool sync.Pool

func acquireTemporalScratch(n int, pooled bool) *temporalScratch {
	var ts *temporalScratch
	if pooled {
		if v := temporalScratchPool.Get(); v != nil {
			ts = v.(*temporalScratch)
			statTempHits.Inc()
		} else {
			ts = new(temporalScratch)
			statTempMisses.Inc()
		}
	} else {
		ts = new(temporalScratch)
	}
	if cap(ts.candidates) < n {
		ts.candidates = make([]graph.NodeID, 0, n)
	}
	return ts
}

func (ts *temporalScratch) release(pooled bool) {
	if !pooled {
		return
	}
	temporalScratchPool.Put(ts)
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

var revAccPool sync.Pool

func acquireRevAcc(n int) *revAcc {
	var ra *revAcc
	if v := revAccPool.Get(); v != nil {
		ra = v.(*revAcc)
		statRevAccHits.Inc()
	} else {
		ra = new(revAcc)
		statRevAccMisses.Inc()
	}
	if cap(ra.acc) < n {
		ra.acc = make([]float64, n)
	} else {
		ra.acc = ra.acc[:n]
	}
	words := (n + 63) / 64
	if cap(ra.seen) < words {
		ra.seen = make([]uint64, words)
	} else {
		ra.seen = ra.seen[:words]
	}
	return ra
}

func releaseRevAcc(ra *revAcc) { revAccPool.Put(ra) }

// frozenPool recycles the flat arrays of compiled trees. A FrozenTree's
// dominant buffers are the length-n arrays indexed by node id (the
// interleaved mask/rank words and the first-step table); reusing them
// means a warm query's compile step pays their reset and the
// support-sized fills, no allocation.
var frozenPool sync.Pool

func acquireFrozen(pooled bool) *FrozenTree {
	if pooled {
		if v := frozenPool.Get(); v != nil {
			statFrozenHits.Inc()
			return v.(*FrozenTree)
		}
		statFrozenMisses.Inc()
	}
	return new(FrozenTree)
}

// releaseFrozen returns f's storage to the pool. The caller must not
// use f afterwards.
func releaseFrozen(f *FrozenTree, pooled bool) {
	if !pooled || f == nil {
		return
	}
	frozenPool.Put(f)
}
