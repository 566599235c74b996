package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"crashsim/internal/graph"
	"crashsim/internal/rng"
)

// Scores maps candidate nodes to their SimRank estimate with respect to
// the query source.
type Scores map[graph.NodeID]float64

// ctxCheckInterval is how many Monte-Carlo iterations run between
// cancellation checks inside a single candidate's sampling loop; a
// power of two so the check compiles to a mask test.
const ctxCheckInterval = 1024

// SingleSource runs CrashSim (Algorithm 1): it estimates the SimRank
// between u and every node in the candidate set omega on graph g. A nil
// omega means all nodes, i.e. the usual single-source query. The result
// satisfies |s(u,v) − sim(u,v)| ≤ ε with probability ≥ 1−δ per node
// (Theorem 1).
func SingleSource(g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params) (Scores, error) {
	return SingleSourceCtx(context.Background(), g, u, omega, p)
}

// SingleSourceCtx is SingleSource with cancellation: the Monte-Carlo
// loop checks ctx between candidates and every ctxCheckInterval
// iterations within a candidate, so a deadline or client disconnect
// stops CPU work promptly and returns ctx.Err(). Results for a given
// seed are identical to SingleSource.
func SingleSourceCtx(ctx context.Context, g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params) (Scores, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tree, q, err := prepare(g, u, p)
	if err != nil {
		return nil, err
	}
	// The tree is owned by this query alone, so its arena can go back to
	// the pool as soon as it is compiled.
	ft := freezeOwned(g, tree, q)
	defer releaseFrozen(ft, !q.DisablePooling)
	return estimateWith(ctx, g, u, omega, q, ft)
}

// SingleSourceWithTree is SingleSource with a caller-provided reverse
// reachable tree for u, letting CrashSim-T reuse the tree it already
// computed for pruning. The tree must have been built on g with the same
// parameters.
func SingleSourceWithTree(g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params, tree *ReachTree) (Scores, error) {
	q := p.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := checkSource(g, u); err != nil {
		return nil, err
	}
	if tree == nil || tree.Source != u || tree.Lmax != q.Lmax {
		return nil, fmt.Errorf("core: provided tree does not match source %d with lmax %d", u, q.Lmax)
	}
	return estimate(context.Background(), g, u, omega, q, tree)
}

// BuildTree builds the reverse reachable tree CrashSim would use for a
// query from u under p. It is exposed for CrashSim-T and for tools that
// inspect the tree (cmd/repro's Example 2 reproduction).
func BuildTree(g adjacency, u graph.NodeID, p Params) (*ReachTree, error) {
	q := p.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return buildTreeInto(nil, g, u, q), nil
}

// buildTreeInto is BuildTree for resolved and validated params, built
// into the caller's arena dst, or into a pooled one when dst is nil.
// Non-backtracking trees always build into their own arena.
func buildTreeInto(dst *ReachTree, g adjacency, u graph.NodeID, q Params) *ReachTree {
	switch {
	case q.NonBacktracking:
		return RevReachNonBacktracking(g, u, q.C, q.Lmax, q.Transition)
	case dst == nil:
		return RevReach(g, u, q.C, q.Lmax, q.Transition)
	default:
		return revReachInto(dst, g, u, q.C, q.Lmax, q.Transition)
	}
}

func prepare(g *graph.Graph, u graph.NodeID, p Params) (*ReachTree, Params, error) {
	q := p.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, q, err
	}
	if err := checkSource(g, u); err != nil {
		return nil, q, err
	}
	tree, err := BuildTree(g, u, q)
	if err != nil {
		return nil, q, err
	}
	return tree, q, nil
}

func checkSource(g *graph.Graph, u graph.NodeID) error {
	if u < 0 || int(u) >= g.NumNodes() {
		return fmt.Errorf("core: source %d out of range for n=%d", u, g.NumNodes())
	}
	return nil
}

// estimate runs the n_r Monte-Carlo iterations. The loop is organized
// per-candidate rather than per-iteration (the sums are identical), so
// candidates can be processed independently and in parallel; every
// candidate draws from its own random stream, which makes results
// invariant to the worker count and to the composition of omega.
//
// The build-time tree is first compiled into its flat FrozenTree form,
// so the per-step crash check inside the walk loop is an array load
// instead of a search. Scores accumulate in a pooled dense array
// indexed by node (workers write disjoint entries, so no locking is
// needed) and convert to the public Scores map only at the end.
// (CrashSim-T calls estimateWith directly, managing the compiled form
// through its cross-snapshot frozenCarry.)
func estimate(ctx context.Context, g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params, tree *ReachTree) (Scores, error) {
	ft := freeze(g, tree, p)
	defer releaseFrozen(ft, !p.DisablePooling)
	return estimateWith(ctx, g, u, omega, p, ft)
}

// freeze compiles tree for the walk kernels on g into a pooled
// FrozenTree. The caller releases the result with releaseFrozen.
func freeze(g *graph.Graph, tree *ReachTree, p Params) *FrozenTree {
	ft := acquireFrozen(!p.DisablePooling)
	ft.compile(tree, g.NumNodes())
	ft.buildStep1(g)
	return ft
}

// freezeOwned is freeze for a caller that owns tree. Once the tree is
// compiled nothing reads it again (the prefilter starts from the
// compiled support list), so its arena goes straight back to the pool;
// a concurrent query, or the next source of a batch, then builds into
// it. The caller must not use tree afterwards.
func freezeOwned(g *graph.Graph, tree *ReachTree, p Params) *FrozenTree {
	ft := freeze(g, tree, p)
	releaseTree(tree, !p.DisablePooling)
	return ft
}

// estimateWith is estimate against a compiled tree: it runs the fused
// frozen-tree kernels against ft. The caller keeps ownership of ft —
// nothing here compiles or releases it.
func estimateWith(ctx context.Context, g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params, ft *FrozenTree) (Scores, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumNodes()
	pooled := !p.DisablePooling
	sc := acquireScratch(n, pooled)
	defer sc.release(pooled)

	if omega == nil {
		omega = sc.identity(n)
	}
	for _, v := range omega {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: candidate %d out of range for n=%d", v, n)
		}
	}
	nr := p.iterations(n)
	if nr < 1 {
		return nil, fmt.Errorf("core: derived iteration count %d < 1", nr)
	}

	dense := sc.dense
	sqrtC := math.Sqrt(p.C)

	statCandidates.Add(uint64(len(omega)))

	live := sc.liveCandidates(g, u, omega, p, ft, dense)

	workers := p.Workers
	if workers > len(live) {
		workers = len(live)
	}
	if workers <= 1 {
		for _, v := range live {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s, err := estimateCandidateFrozen(ctx, g, u, v, p, ft, nr, sqrtC)
			if err != nil {
				return nil, err
			}
			dense[v] = s
		}
	} else {
		var wg sync.WaitGroup
		chunk := (len(live) + workers - 1) / workers
		for lo := 0; lo < len(live); lo += chunk {
			hi := lo + chunk
			if hi > len(live) {
				hi = len(live)
			}
			wg.Add(1)
			go func(part []graph.NodeID) {
				defer wg.Done()
				for _, v := range part {
					if ctx.Err() != nil {
						break
					}
					s, err := estimateCandidateFrozen(ctx, g, u, v, p, ft, nr, sqrtC)
					if err != nil {
						break // only ctx errors escape; reported below
					}
					dense[v] = s
				}
			}(live[lo:hi])
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	scores := make(Scores, len(omega))
	for _, v := range omega {
		scores[v] = dense[v]
	}
	return scores, nil
}

// liveCandidates applies the zero-score prefilter for one source query:
// a candidate's walk can only crash into the source tree if the
// candidate is forward-reachable (via out-edges) from some tree node
// within l_max hops. Everything else provably scores 0, so it is
// excluded before any sampling — on graphs with small reverse
// neighborhoods (e.g. citation graphs with many uncited papers) this
// removes most of the work. The BFS starts from the compiled tree's
// support list. A pruned source gets its defined self-score written
// into dense directly (sim(u,u) = 1). The returned slice aliases
// sc.live and is valid until the next call; with the prefilter disabled
// it is omega unchanged.
// Both the single-source and the batched multi-source paths run their
// candidate sets through this one helper, so the pruning decision is
// identical in either mode.
func (sc *scratch) liveCandidates(g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params, ft *FrozenTree, dense []float64) []graph.NodeID {
	if p.DisablePrefilter {
		return omega
	}
	reach := newNodeBitset(sc.reach, g.NumNodes())
	sc.frontier, sc.next = forwardReachBits(g, ft.SupportNodes(), p.Lmax, reach, sc.frontier, sc.next)
	sc.reach = reach
	live := sc.live[:0]
	for _, v := range omega {
		if reach.Has(v) && g.InDegree(v) > 0 {
			live = append(live, v)
		} else if v == u {
			dense[v] = 1
		}
	}
	sc.live = live
	statPrefilterPruned.Add(uint64(len(omega) - len(live)))
	return live
}

// estimateCandidateFrozen runs the n_r walks for one candidate against
// the compiled tree and returns the averaged crash probability. Sampling
// and scoring are fused into one loop per walk (the walk is never
// materialized), and the whole n_r budget runs inside one kernel call,
// so per-walk costs reduce to the walk itself — the meeting-rule
// dispatch, the CSR array setup and the start node's offsets are all
// paid once per candidate. Contributions are bit-identical to the
// two-pass reference kernel the tests keep (sample a walk, then score
// it against the build-time tree) — same random stream, same
// floating-point operation order. The only error it can return is
// ctx.Err().
func estimateCandidateFrozen(ctx context.Context, g *graph.Graph, u, v graph.NodeID, p Params, ft *FrozenTree, nr int, sqrtC float64) (float64, error) {
	if v == u {
		return 1, nil // sim(u,u) = 1 by definition
	}
	r := rng.FastSplit(p.Seed, uint64(v))
	sum, _, walks, err := runKernel(ctx, p.Meeting, g, ft, v, sqrtC, p.Lmax, nr, &r)
	statWalks.Add(uint64(walks))
	if err != nil {
		return 0, err
	}
	return sum / float64(nr), nil
}

// runKernel runs a candidate's full n_r-walk budget against the frozen
// tree with the meeting rule's fused sample-and-score kernel, and
// returns the summed contributions, their squares (for the with-error
// path's variance; one multiply-add per walk, noise for the callers
// that drop it), the number of walks completed, and the context error
// that cut the loop short, if any. Kernels draw from the devirtualized
// rng.Fast — the same stream rng.Split yields, minus the interface
// dispatch that would otherwise sit on every step. The dispatch is a
// direct switch rather than a func value so escape analysis can see
// that r stays on the caller's stack: an indirect call would move it to
// the heap, one allocation per candidate.
func runKernel(ctx context.Context, rule MeetingRule, g *graph.Graph, ft *FrozenTree, v graph.NodeID, sqrtC float64, lmax, nr int, r *rng.Fast) (sum, sumSq float64, walks int, err error) {
	switch rule {
	case MeetingAny:
		return candidateScoreAny(ctx, g, ft, v, sqrtC, lmax, nr, r)
	case MeetingFirstCrash:
		return candidateScoreFirstCrash(ctx, g, ft, v, sqrtC, lmax, nr, r)
	default:
		return candidateScoreFirstMeet(ctx, g, ft, v, sqrtC, lmax, nr, r)
	}
}

// The three kernels below fuse sampleWalk with walkContribution, the
// two-pass reference kernel kept in oracle_test.go. They consume the
// random stream in exactly sampleWalk's order (one Float64, then one
// IntN when the walk continues), and they accumulate in exactly
// walkContribution's order, so estimates are bit-identical to the
// reference kernel; the determinism tests enforce this. The
// √c continue-test is done in integer space — Bits53 consumes the same
// word Float64 would, and Threshold53 makes the comparison exact — so
// the hot path never converts the draw to a float.
// The walk steps through the raw in-adjacency CSR — the offsets of the
// next position are fetched at arrival, so the first-meet rule's
// carried-mass update reuses the degree the step already loaded instead
// of re-deriving g.InDegree.
// The first step is peeled out of the step loop: every walk starts at
// v, so the hop draws from a fixed range (whose bounds, and a walk
// that cannot move at all, are rejected once per candidate), and the
// landing node's crash probability and onward bounds come from the
// 16-byte s1 table entry instead of the inOff/any/lv/probs probe
// chain. On a geometrically truncated walk the first step is the most
// common one, so the peel removes roughly a quarter of all probes.
// A candidate with no in-edges (or lmax < 1) never moves, so every
// walk contributes exactly 0 — the same sum the reference kernel reaches
// after sampling, returned without drawing.

func candidateScoreAny(ctx context.Context, g *graph.Graph, ft *FrozenTree, v graph.NodeID, sqrtC float64, lmax, nr int, r *rng.Fast) (sum, sumSq float64, walks int, err error) {
	inOff, inAdj := g.InCSR()
	lo0, hi0 := inOff[v], inOff[v+1]
	u0 := uint64(hi0 - lo0)
	if lmax < 1 || u0 == 0 {
		return 0, 0, nr, nil
	}
	s1 := ft.s1
	// The probe arrays come off the struct once: every RNG draw stores
	// through r, which keeps the compiler from proving ft's fields
	// unchanged across steps — local slice headers pin the base pointers
	// in registers for the whole candidate. The probe itself (any-bit
	// test, lv pair, popcount into probs) is probLive written out against
	// these locals.
	anyB, lv, probs, mw := ft.any, ft.lv, ft.probs, ft.maskWords
	// Stage the candidate's own first-hop entries in a stack buffer:
	// after the first walk these few lines are L1-resident, so the
	// peeled first step reads one hot entry instead of gathering
	// through inAdj and the length-n s1 table on every walk. Candidates
	// with more in-edges than the buffer (rare) gather directly.
	var entBuf [64]step1
	var ent []step1
	if u0 <= uint64(len(entBuf)) {
		ent = entBuf[:u0]
		for j := range ent {
			ent[j] = s1[inAdj[lo0+int32(j)]]
		}
	}
	thresh := rng.Threshold53(sqrtC)
	for k := 0; k < nr; k++ {
		if k&(ctxCheckInterval-1) == ctxCheckInterval-1 {
			if e := ctx.Err(); e != nil {
				return 0, 0, k, e
			}
		}
		x := 0.0
		if r.Bits53() < thresh {
			// Uniform index in [0, u0): rng.IntN's algorithm (power-of-
			// two mask, else Lemire with rejection tail) written out so the
			// draw compiles into the loop with no call — a call here would
			// spill the kernel's live float registers every step. The
			// byte-identity tests pin this against the rng implementation.
			x64 := r.Uint64()
			var j uint64
			if u0&(u0-1) == 0 {
				j = x64 & (u0 - 1)
			} else {
				hi2, lo2 := bits.Mul64(x64, u0)
				if lo2 < u0 {
					t := -u0 % u0
					for lo2 < t {
						hi2, lo2 = bits.Mul64(r.Uint64(), u0)
					}
				}
				j = hi2
			}
			var e step1
			if ent != nil {
				e = ent[j]
			} else {
				e = s1[inAdj[lo0+int32(j)]]
			}
			lo, hi := e.lo, e.hi
			x = e.p
			for step := 2; step <= lmax; step++ {
				if r.Bits53() >= thresh {
					break
				}
				deg := int(hi - lo)
				if deg == 0 {
					break
				}
				x64 := r.Uint64()
				u := uint64(deg)
				var j uint64
				if u&(u-1) == 0 {
					j = x64 & (u - 1)
				} else {
					hi2, lo2 := bits.Mul64(x64, u)
					if lo2 < u {
						t := -u % u
						for lo2 < t {
							hi2, lo2 = bits.Mul64(r.Uint64(), u)
						}
					}
					j = hi2
				}
				cur := inAdj[lo+int32(j)]
				lo, hi = inOff[cur], inOff[cur+1]
				if anyB[int(cur)>>6]&(uint64(1)<<uint(cur&63)) != 0 {
					wi := (int(cur)*mw + step>>6) * 2
					word := lv[wi]
					bit := uint64(1) << uint(step&63)
					if word&bit != 0 {
						x += probs[int(lv[wi+1])+bits.OnesCount64(word&(bit-1))]
					}
				}
			}
		}
		sum += x
		sumSq += x * x
	}
	return sum, sumSq, nr, nil
}

func candidateScoreFirstCrash(ctx context.Context, g *graph.Graph, ft *FrozenTree, v graph.NodeID, sqrtC float64, lmax, nr int, r *rng.Fast) (sum, sumSq float64, walks int, err error) {
	// After the first positive crash probability a walk's contribution
	// is final, but the walk must still be sampled to its end so the
	// candidate's random stream stays aligned with the reference kernel.
	inOff, inAdj := g.InCSR()
	lo0, hi0 := inOff[v], inOff[v+1]
	u0 := uint64(hi0 - lo0)
	if lmax < 1 || u0 == 0 {
		return 0, 0, nr, nil
	}
	s1 := ft.s1
	// See candidateScoreAny: local headers keep the probe bases in
	// registers across the RNG's stores.
	anyB, lv, probs, mw := ft.any, ft.lv, ft.probs, ft.maskWords
	// Stage the candidate's own first-hop entries in a stack buffer:
	// after the first walk these few lines are L1-resident, so the
	// peeled first step reads one hot entry instead of gathering
	// through inAdj and the length-n s1 table on every walk. Candidates
	// with more in-edges than the buffer (rare) gather directly.
	var entBuf [64]step1
	var ent []step1
	if u0 <= uint64(len(entBuf)) {
		ent = entBuf[:u0]
		for j := range ent {
			ent[j] = s1[inAdj[lo0+int32(j)]]
		}
	}
	thresh := rng.Threshold53(sqrtC)
	for k := 0; k < nr; k++ {
		if k&(ctxCheckInterval-1) == ctxCheckInterval-1 {
			if e := ctx.Err(); e != nil {
				return 0, 0, k, e
			}
		}
		x := 0.0
		if r.Bits53() < thresh {
			// See candidateScoreAny for the inlined uniform draw.
			x64 := r.Uint64()
			var j uint64
			if u0&(u0-1) == 0 {
				j = x64 & (u0 - 1)
			} else {
				hi2, lo2 := bits.Mul64(x64, u0)
				if lo2 < u0 {
					t := -u0 % u0
					for lo2 < t {
						hi2, lo2 = bits.Mul64(r.Uint64(), u0)
					}
				}
				j = hi2
			}
			var e step1
			if ent != nil {
				e = ent[j]
			} else {
				e = s1[inAdj[lo0+int32(j)]]
			}
			lo, hi := e.lo, e.hi
			x = e.p
			for step := 2; step <= lmax; step++ {
				if r.Bits53() >= thresh {
					break
				}
				deg := int(hi - lo)
				if deg == 0 {
					break
				}
				x64 := r.Uint64()
				u := uint64(deg)
				var j uint64
				if u&(u-1) == 0 {
					j = x64 & (u - 1)
				} else {
					hi2, lo2 := bits.Mul64(x64, u)
					if lo2 < u {
						t := -u % u
						for lo2 < t {
							hi2, lo2 = bits.Mul64(r.Uint64(), u)
						}
					}
					j = hi2
				}
				cur := inAdj[lo+int32(j)]
				lo, hi = inOff[cur], inOff[cur+1]
				if x == 0 && anyB[int(cur)>>6]&(uint64(1)<<uint(cur&63)) != 0 {
					wi := (int(cur)*mw + step>>6) * 2
					word := lv[wi]
					bit := uint64(1) << uint(step&63)
					if word&bit != 0 {
						x = probs[int(lv[wi+1])+bits.OnesCount64(word&(bit-1))]
					}
				}
			}
		}
		sum += x
		sumSq += x * x
	}
	return sum, sumSq, nr, nil
}

func candidateScoreFirstMeet(ctx context.Context, g *graph.Graph, ft *FrozenTree, v graph.NodeID, sqrtC float64, lmax, nr int, r *rng.Fast) (sum, sumSq float64, walks int, err error) {
	inOff, inAdj := g.InCSR()
	lo0, hi0 := inOff[v], inOff[v+1]
	u0 := uint64(hi0 - lo0)
	if lmax < 1 || u0 == 0 {
		return 0, 0, nr, nil
	}
	s1 := ft.s1
	// See candidateScoreAny: local headers keep the probe bases in
	// registers across the RNG's stores.
	anyB, lv, probs, mw := ft.any, ft.lv, ft.probs, ft.maskWords
	// Stage the candidate's own first-hop entries in a stack buffer:
	// after the first walk these few lines are L1-resident, so the
	// peeled first step reads one hot entry instead of gathering
	// through inAdj and the length-n s1 table on every walk. Candidates
	// with more in-edges than the buffer (rare) gather directly.
	var entBuf [64]step1
	var ent []step1
	if u0 <= uint64(len(entBuf)) {
		ent = entBuf[:u0]
		for j := range ent {
			ent[j] = s1[inAdj[lo0+int32(j)]]
		}
	}
	thresh := rng.Threshold53(sqrtC)
	for k := 0; k < nr; k++ {
		if k&(ctxCheckInterval-1) == ctxCheckInterval-1 {
			if e := ctx.Err(); e != nil {
				return 0, 0, k, e
			}
		}
		// carried is C_i: the probability mass of source walks that met
		// this walk at an earlier position and then followed the walk's
		// own path; it is excluded from later crashes. At the peeled
		// first step carried is 0, so the step's contribution is the s1
		// mass as-is and the carry seeds from it directly.
		x := 0.0
		if r.Bits53() < thresh {
			// See candidateScoreAny for the inlined uniform draw.
			x64 := r.Uint64()
			var j uint64
			if u0&(u0-1) == 0 {
				j = x64 & (u0 - 1)
			} else {
				hi2, lo2 := bits.Mul64(x64, u0)
				if lo2 < u0 {
					t := -u0 % u0
					for lo2 < t {
						hi2, lo2 = bits.Mul64(r.Uint64(), u0)
					}
				}
				j = hi2
			}
			var e step1
			if ent != nil {
				e = ent[j]
			} else {
				e = s1[inAdj[lo0+int32(j)]]
			}
			lo, hi := e.lo, e.hi
			x = e.p
			carried := 0.0
			if x != 0 {
				if deg := int(hi - lo); deg > 0 {
					carried = x * sqrtC / float64(deg)
				}
			}
			for step := 2; step <= lmax; step++ {
				if r.Bits53() >= thresh {
					break
				}
				deg := int(hi - lo)
				if deg == 0 {
					break
				}
				x64 := r.Uint64()
				u := uint64(deg)
				var j uint64
				if u&(u-1) == 0 {
					j = x64 & (u - 1)
				} else {
					hi2, lo2 := bits.Mul64(x64, u)
					if lo2 < u {
						t := -u % u
						for lo2 < t {
							hi2, lo2 = bits.Mul64(r.Uint64(), u)
						}
					}
					j = hi2
				}
				cur := inAdj[lo+int32(j)]
				lo, hi = inOff[cur], inOff[cur+1]
				p := 0.0
				if anyB[int(cur)>>6]&(uint64(1)<<uint(cur&63)) != 0 {
					wi := (int(cur)*mw + step>>6) * 2
					word := lv[wi]
					bit := uint64(1) << uint(step&63)
					if word&bit != 0 {
						p = probs[int(lv[wi+1])+bits.OnesCount64(word&(bit-1))]
					}
				}
				m := p - carried
				if m < 0 {
					m = 0
				}
				x += m
				// t == 0 forces carried to (+)0 on both branches below,
				// exactly what the reference kernel's 0·√c/d computes —
				// skipping the divide keeps the bits and drops the most
				// expensive op from the common all-miss walk.
				if t := carried + m; t != 0 {
					if deg = int(hi - lo); deg > 0 {
						carried = t * sqrtC / float64(deg)
					} else {
						carried = 0
					}
				}
			}
		}
		sum += x
		sumSq += x * x
	}
	return sum, sumSq, nr, nil
}
