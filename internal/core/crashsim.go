package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"crashsim/internal/graph"
	"crashsim/internal/par"
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
// seed are identical to SingleSource. It is the map view of
// SingleSourceResult.
func SingleSourceCtx(ctx context.Context, g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params) (Scores, error) {
	return mapOf(SingleSourceResult(ctx, g, u, omega, p))
}

// SingleSourceResult is SingleSourceCtx answering with a Result built
// straight from the estimate's dense scores, with no map.
func SingleSourceResult(ctx context.Context, g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	tree, q, nr, err := prepare(g, u, p)
	if err != nil {
		return Result{}, err
	}
	// The tree is owned by this query alone, so its arena goes back to
	// the pool once the estimate is done.
	defer treePool.Put(tree)
	return estimateSource(ctx, g, u, tree, omega, q, nr)
}

// mapOf is the map view of a Result answer.
func mapOf(r Result, err error) (Scores, error) {
	if err != nil {
		return nil, err
	}
	return r.Map(), nil
}

// SingleSourceWithTree is SingleSource with a caller-provided reverse
// reachable tree for u, letting CrashSim-T reuse the tree it already
// computed for pruning. The tree must have been built on g with the same
// parameters; it is only read, so concurrent queries may share it.
func SingleSourceWithTree(g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params, tree *ReachTree) (Scores, error) {
	q, nr, err := p.resolve(g.NumNodes())
	if err != nil {
		return nil, err
	}
	if err := checkSource(g, u); err != nil {
		return nil, err
	}
	if tree == nil || tree.Source != u || tree.Lmax != q.Lmax || tree.words != indexWords(g.NumNodes()) {
		return nil, fmt.Errorf("core: provided tree does not match source %d with lmax %d on n=%d", u, q.Lmax, g.NumNodes())
	}
	return mapOf(estimateSource(context.Background(), g, u, tree, omega, q, nr))
}

// BuildTree builds the reverse reachable tree CrashSim would use for a
// query from u under p. It is exposed for CrashSim-T and for tools that
// inspect the tree (cmd/repro's Example 2 reproduction).
func BuildTree(g *graph.Graph, u graph.NodeID, p Params) (*ReachTree, error) {
	q := p.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return buildTreeInto(nil, g, u, q), nil
}

// buildTreeInto is BuildTree for resolved and validated params, built
// with its probe index into the caller's arena dst, or into a pooled
// one when dst is nil. Non-backtracking trees always build into their
// own arena.
func buildTreeInto(dst *ReachTree, g *graph.Graph, u graph.NodeID, q Params) *ReachTree {
	switch {
	case q.NonBacktracking:
		return RevReachNonBacktracking(g, u, q.C, q.Lmax, q.Transition)
	case dst == nil:
		return RevReach(g, u, q.C, q.Lmax, q.Transition)
	default:
		return revReachInto(dst, g, u, q.C, q.Lmax, q.Transition, 0, InEdges, true)
	}
}

// prepare resolves p for g, checks the source and builds its tree into
// a pooled arena the caller owns.
func prepare(g *graph.Graph, u graph.NodeID, p Params) (*ReachTree, Params, int, error) {
	q, nr, err := p.resolve(g.NumNodes())
	if err != nil {
		return nil, q, 0, err
	}
	if err := checkSource(g, u); err != nil {
		return nil, q, 0, err
	}
	return buildTreeInto(nil, g, u, q), q, nr, nil
}

func checkSource(g *graph.Graph, u graph.NodeID) error {
	if u < 0 || int(u) >= g.NumNodes() {
		return fmt.Errorf("core: source %d out of range for n=%d", u, g.NumNodes())
	}
	return nil
}

// estimateSource runs the one estimate path for a single source tree
// and returns its candidates' scores. The caller keeps ownership of
// tree.
func estimateSource(ctx context.Context, g *graph.Graph, u graph.NodeID, tree *ReachTree, omega []graph.NodeID, q Params, nr int) (Result, error) {
	n := g.NumNodes()
	a := acquireArena(1, 1, n)
	defer a.release()
	a.addSource(g, u, tree, a.window(0, n), nil)
	return a.sampleOne(ctx, g, omega, q, nr)
}

// sampleOne is sample for an arena holding one prepared source,
// answering with that source's Result.
func (a *arena) sampleOne(ctx context.Context, g *graph.Graph, omega []graph.NodeID, q Params, nr int) (Result, error) {
	cand, err := a.sample(ctx, g, omega, q, nr)
	if err != nil {
		return Result{}, err
	}
	return a.preps[0].result(resultNodes(omega, cand)), nil
}

// sample is the one estimate path: Algorithm 1's loop, n_r walks per
// candidate of cand against each prepared source's tree, for every
// source in a.preps at once. A nil cand means all nodes; the
// candidate list actually used is returned. Every caller — a
// single-source query, both top-k passes, CrashSim-T's per-snapshot
// estimate, SingleSourceWithError and MultiSource — comes through
// here, with q resolved and nr the n_r resolve settled.
//
// Each source's candidates go through the zero-score prefilter, the
// survivors land source-major in one flattened (source, candidate)
// work list, and that list runs through one par.ForEachCtx fan-out.
// Every item writes a disjoint entry of its source's dense window (and
// of its Σx² window, when the source has one), so the loop needs no
// locking. The loop is per candidate rather than per iteration (the
// sums are identical), and every candidate draws from its own random
// stream, derived from (Seed, candidate) alone, so scores are
// invariant to the worker count, the batching and the composition of
// cand. The only error after the range check is ctx.Err().
func (a *arena) sample(ctx context.Context, g *graph.Graph, cand []graph.NodeID, q Params, nr int) ([]graph.NodeID, error) {
	n := g.NumNodes()
	if cand == nil {
		cand = identityNodes(n)
	}
	for _, v := range cand {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: candidate %d out of range for n=%d", v, n)
		}
	}
	a.work = a.work[:0]
	for i := range a.preps {
		pr := &a.preps[i]
		statCandidates.Add(uint64(len(cand)))
		for _, v := range a.liveCandidates(g, pr.u, cand, q, pr.tree, pr.dense) {
			a.work = append(a.work, batchItem{src: int32(i), v: v})
		}
	}
	sqrtC := math.Sqrt(q.C)
	work, preps := a.work, a.preps
	err := par.ForEachCtx(ctx, len(work), q.Workers, func(i int) {
		it := &work[i]
		pr := &preps[it.src]
		s, sq, walks, err := sampleCandidate(ctx, g, pr, it.v, q, nr, sqrtC)
		it.walks = int32(walks)
		if err != nil {
			return // only ctx errors escape; ForEachCtx reports them
		}
		pr.dense[it.v] = s
		if pr.sq != nil {
			pr.sq[it.v] = sq
		}
	})
	// One counter update per estimate: a per-candidate atomic add would
	// bounce the counter's cache line between the workers.
	walks := uint64(0)
	for _, it := range work {
		walks += uint64(it.walks)
	}
	statWalks.Add(walks)
	return cand, err
}

// liveCandidates applies the zero-score prefilter for one source: a
// candidate's walk can only crash into the source tree if the
// candidate is forward-reachable (via out-edges) from some tree node
// within l_max hops. Everything else provably scores 0, so it is
// excluded before any sampling — on graphs with small reverse
// neighborhoods (e.g. citation graphs with many uncited papers) this
// removes most of the work. The BFS starts from the tree's support,
// the OR of its index rows, in id order. A pruned source gets its
// defined self-score written into dense directly (sim(u,u) = 1). The
// returned slice aliases a.live and is valid until the next call; with
// the prefilter disabled it is omega unchanged.
func (a *arena) liveCandidates(g *graph.Graph, u graph.NodeID, omega []graph.NodeID, p Params, tree *ReachTree, dense []float64) []graph.NodeID {
	if p.DisablePrefilter {
		return omega
	}
	reach := newNodeBitset(a.reach, g.NumNodes())
	tree.orLevels(reach)
	a.frontier, a.next = expandReach(g, p.Lmax, reach, reach.appendNodes(a.frontier[:0]), a.next)
	a.reach = reach
	live := a.live[:0]
	for _, v := range omega {
		if reach.Has(v) && g.InDegree(v) > 0 {
			live = append(live, v)
		} else if v == u {
			dense[v] = 1
		}
	}
	a.live = live
	statPrefilterPruned.Add(uint64(len(omega) - len(live)))
	return live
}

// sampleCandidate runs the n_r walks for one candidate against the
// prepared source's tree and returns the averaged crash probability
// and the walks' summed squared contributions. Sampling and scoring are fused
// into one loop per walk (the walk is never materialized), and the
// whole n_r budget runs inside one kernel call, so per-walk costs
// reduce to the walk itself — reading the meeting rule, the CSR array
// setup and the start node's offsets are all paid once per candidate.
// Contributions are bit-identical to the two-pass reference kernel the
// tests keep (sample a walk, then score it against the build-time
// tree) — same random stream, same floating-point operation order. The
// source itself samples nothing. It also returns the number of walks
// it completed; the only error it can return is ctx.Err().
func sampleCandidate(ctx context.Context, g *graph.Graph, pr *srcPrep, v graph.NodeID, p Params, nr int, sqrtC float64) (score, sumSq float64, walks int, err error) {
	if v == pr.u {
		return 1, 0, 0, nil // sim(u,u) = 1 by definition
	}
	r := rng.FastSplit(p.Seed, uint64(v))
	sum, sumSq, walks, err := runKernel(ctx, p.Meeting, g, pr.tree, pr.s1, v, sqrtC, p.Lmax, nr, &r)
	if err != nil {
		return 0, 0, walks, err
	}
	return sum / float64(nr), sumSq, walks, nil
}

// runKernel is the walk kernel: it runs a candidate's full n_r-walk
// budget against the source tree under the meeting rule, and returns
// the summed contributions, their squares (for SingleSourceWithError's
// variance; one multiply-add per walk, dropped unless the source has a
// Σx² window), the number of walks completed, and the context error
// that cut the loop short, if any. It draws from the devirtualized
// rng.Fast — the same stream rng.Split yields, minus the interface
// dispatch that would otherwise sit on every step — which stays on the
// caller's stack: one candidate's estimate allocates nothing.
//
// The kernel fuses sampleWalk with walkContribution, the two-pass
// reference kernel kept in oracle_test.go. It consumes the random
// stream in exactly sampleWalk's order (one Float64, then one IntN
// when the walk continues), and it accumulates in exactly
// walkContribution's order, so estimates are bit-identical to the
// reference kernel; the determinism tests enforce this. The √c
// continue-test is done in integer space — Bits53 consumes the same
// word Float64 would, and Threshold53 makes the comparison exact — so
// the hot path never converts the draw to a float.
//
// The three meeting rules differ only in what a crash probe adds, so
// the rule is read once per candidate into two numbers and the step
// loop has no branch on it. Each probe adds its mass less the carried
// mass C_i, clamped at 0. Under first-meet (Definition 7) C_i is the
// probability mass of source walks that met this walk at an earlier
// position and then followed the walk's own path: keep = √c carries it
// from step to step. Under any-crash and first-crash keep = 0, so C_i
// stays +0 and every probe adds its mass exactly. A walk whose
// contribution exceeds stop probes no further: stop = 0 under
// first-crash, whose first crash is final, and +Inf otherwise. Either
// way the walk is sampled to its end, so the candidate's random stream
// stays aligned with the reference.
//
// The walk steps through the raw in-adjacency CSR — the offsets of the
// next position are fetched at arrival, so the carried-mass update
// reuses the degree the step already loaded instead of re-deriving
// g.InDegree. Every later step probes the tree's index row for that
// step: one word test, then for a hit one popcount and one load from
// probs. The first step is peeled out of the step loop: every walk
// starts at v, so the hop draws from a fixed range (whose bounds, and
// a walk that cannot move at all, are rejected once per candidate),
// and the landing node's crash probability and onward bounds come from
// the 16-byte s1 table entry instead of inOff and the probe. On a
// geometrically truncated walk the first step is the most common one,
// so the peel removes roughly a quarter of all probes. A candidate
// with no in-edges (or lmax < 1) never moves, so every walk
// contributes exactly 0 — the same sum the reference kernel reaches
// after sampling, returned without drawing.
func runKernel(ctx context.Context, rule MeetingRule, g *graph.Graph, t *ReachTree, s1 []step1, v graph.NodeID, sqrtC float64, lmax, nr int, r *rng.Fast) (sum, sumSq float64, walks int, err error) {
	inOff, inAdj := g.InCSR()
	lo0, hi0 := inOff[v], inOff[v+1]
	u0 := uint64(hi0 - lo0)
	if lmax < 1 || u0 == 0 {
		return 0, 0, nr, nil
	}
	keep, stop := sqrtC, math.Inf(1) // first-meet's; see above
	switch rule {
	case MeetingAny:
		keep = 0
	case MeetingFirstCrash:
		keep, stop = 0, 0
	}
	// The probe arrays come off the struct once: every RNG draw stores
	// through r, which keeps the compiler from proving t's fields
	// unchanged across steps — local slice headers pin the base pointers
	// in registers for the whole candidate. The probe itself is
	// ReachTree.Prob written out against these locals, with the range
	// guards dropped: the step is bounded by the tree's own l_max and
	// cur is a node of the graph the tree was indexed on.
	idx, probs, rowLen := t.idx, t.probs, 2*t.words
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
			// At the first step carried is 0, so the step's contribution
			// is the s1 mass as-is and the carry seeds from it directly.
			x = e.p
			carried := 0.0
			if x != 0 {
				if deg := int(hi - lo); deg > 0 {
					carried = x * keep / float64(deg)
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
				// The same inlined draw as the first step's, over [0, deg).
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
				if x > stop {
					continue
				}
				p := 0.0
				wi := step*rowLen + int(cur>>6)*2
				if word, bit := idx[wi], uint64(1)<<uint(cur&63); word&bit != 0 {
					p = probs[int(idx[wi+1])+bits.OnesCount64(word&(bit-1))]
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
						carried = t * keep / float64(deg)
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
