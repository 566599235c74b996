// Package core implements the paper's contribution: the CrashSim
// single-source SimRank estimator for static snapshots (Section III) and
// the CrashSim-T algorithm for temporal SimRank queries (Section IV).
//
// CrashSim computes, once per query, the reverse reachable tree of the
// source u — the probability U[t][x] that a truncated √c-walk from u is
// at x after t steps — and then, for n_r iterations, samples one
// truncated √c-walk from every candidate v and accumulates the
// probability of that walk "crashing" into u's tree at the matching step.
// The truncation length l_max and the iteration count n_r are derived
// from the decay factor c, the error bound ε, and the failure probability
// δ exactly as in Theorem 1.
package core

import (
	"fmt"
	"math"
)

// TransitionRule selects how revReach propagates probability mass from a
// node x to its in-neighbor v.
type TransitionRule int

const (
	// TransitionExact divides by |I(x)|: the true √c-walk at x moves to
	// a uniformly chosen in-neighbor of x, so each in-neighbor receives
	// √c/|I(x)| of x's mass. This is the default; with it the estimator
	// is unbiased for the meeting probability (verified against the
	// Power Method in tests).
	TransitionExact TransitionRule = iota
	// TransitionPaperLiteral divides by |I(v)| (the in-degree of the
	// in-neighbor), as written in Algorithm 2 line 12 and Example 2 of
	// the paper. The per-level masses then do not form a
	// sub-distribution; it is provided for the fidelity ablation only.
	TransitionPaperLiteral
)

func (t TransitionRule) String() string {
	switch t {
	case TransitionExact:
		return "exact"
	case TransitionPaperLiteral:
		return "paper-literal"
	default:
		return fmt.Sprintf("transition(%d)", int(t))
	}
}

// MeetingRule selects how a sampled candidate walk accumulates crash
// probability against the source tree.
type MeetingRule int

const (
	// MeetingFirstMeet (the default) applies a first-meeting correction:
	// at each position it subtracts the probability mass of source walks
	// that already met the candidate walk at an earlier position and
	// then followed the candidate's sampled path — the dominant way two
	// walks meet repeatedly. The per-position residual
	//
	//	M_i = max(0, U[i][w_i] − C_i),  C_{i+1} = (C_i + M_i)·√c/|I(w_i)|
	//
	// costs O(1) per step and brings the estimator in line with
	// SimRank's first-meeting semantics (Definition 7), which the
	// paper's accuracy claims require.
	MeetingFirstMeet MeetingRule = iota
	// MeetingAny sums U[t][walk_t] over every position of the walk, as
	// Algorithm 1 is literally written. It estimates the expected number
	// of co-locations, which overcounts SimRank's first-meeting
	// probability when walks can meet more than once; kept for the
	// fidelity ablation.
	MeetingAny
	// MeetingFirstCrash stops accumulating after the first position with
	// positive crash probability — a cruder truncation heuristic, kept
	// for the ablation.
	MeetingFirstCrash
)

func (m MeetingRule) String() string {
	switch m {
	case MeetingFirstMeet:
		return "first-meet"
	case MeetingAny:
		return "any"
	case MeetingFirstCrash:
		return "first-crash"
	default:
		return fmt.Sprintf("meeting(%d)", int(m))
	}
}

// Params configures CrashSim. The zero value gives the paper's defaults
// (c = 0.6, ε = 0.025, δ = 0.01) with theory-derived l_max and n_r.
type Params struct {
	// C is the SimRank decay factor in (0,1). Default 0.6.
	C float64
	// Eps is the maximum tolerable absolute error ε. Default 0.025.
	Eps float64
	// Delta is the per-query failure probability δ. Default 0.01.
	Delta float64
	// Lmax overrides the truncation length of √c-walks. 0 derives
	// ⌈(1+√c)/(1−√c)²⌉ per Theorem 1.
	Lmax int
	// Iterations overrides the number of Monte-Carlo iterations n_r.
	// 0 derives ⌈3c/(ε−p·ε_t)² · ln(n/δ)⌉ per Lemma 3.
	Iterations int
	// Transition selects the revReach propagation rule.
	Transition TransitionRule
	// Meeting selects the crash accumulation rule.
	Meeting MeetingRule
	// NonBacktracking, when true, builds the reverse reachable tree over
	// a non-backtracking walk (Algorithm 2 line 9 excludes the parent
	// node). Ablation only; the default is the plain √c-walk.
	NonBacktracking bool
	// DisablePrefilter turns off the zero-score prefilter (the
	// multi-source BFS that skips candidates whose walks provably cannot
	// crash). Scores are identical either way; ablation only.
	DisablePrefilter bool
	// DisablePooling turns off the sync.Pool reuse of query scratch
	// (dense score arrays, walk buffers, reverse-tree level storage).
	// Scores are bit-identical either way — the determinism tests
	// enforce it — so this exists only to measure the allocation win
	// and to localize pooling bugs.
	DisablePooling bool
	// Workers bounds the number of goroutines used to process the
	// candidate set. 0 or 1 is sequential. Results are identical for
	// any worker count: every candidate has its own random stream.
	Workers int
	// Seed makes the estimator deterministic.
	Seed uint64
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (p Params) withDefaults() Params {
	if p.C == 0 {
		p.C = 0.6
	}
	if p.Eps == 0 {
		p.Eps = 0.025
	}
	if p.Delta == 0 {
		p.Delta = 0.01
	}
	if p.Lmax == 0 {
		p.Lmax = DeriveLmax(p.C)
	}
	if p.Workers == 0 {
		p.Workers = 1
	}
	return p
}

// Validate checks parameter ranges after defaulting. The float checks
// are written so that NaN fails them.
func (p Params) Validate() error {
	q := p.withDefaults()
	if !(q.C > 0 && q.C < 1) {
		return fmt.Errorf("core: decay factor c=%g outside (0,1)", q.C)
	}
	if !(q.Eps > 0 && q.Eps < 1) {
		return fmt.Errorf("core: error bound eps=%g outside (0,1)", q.Eps)
	}
	if !(q.Delta > 0 && q.Delta < 1) {
		return fmt.Errorf("core: failure probability delta=%g outside (0,1)", q.Delta)
	}
	if q.Lmax < 1 {
		return fmt.Errorf("core: lmax must be >= 1, got %d", q.Lmax)
	}
	if q.Iterations < 0 {
		return fmt.Errorf("core: iterations must be >= 0, got %d", q.Iterations)
	}
	// The truncation-error sanity check runs on the defaulted q, not
	// the caller's raw p: guarding on p.Eps != 0 would silently skip
	// the check for every caller relying on the default ε = 0.025 —
	// exactly the callers who combine it with a hand-set small Lmax and
	// need the warning most.
	if et := TruncationError(q.C, q.Lmax); q.Eps <= TruncationMass(q.C, q.Lmax)*et {
		return fmt.Errorf("core: eps=%g not above the truncation error p·ε_t=%g; increase eps or lmax",
			q.Eps, TruncationMass(q.C, q.Lmax)*et)
	}
	return nil
}

// DeriveLmax returns the truncation length l_max = ⌈(1+√c)/(1−√c)²⌉ of
// Theorem 1 (expectation plus two variances of the geometric walk-length
// distribution).
func DeriveLmax(c float64) int {
	sc := math.Sqrt(c)
	return int(math.Ceil((1 + sc) / ((1 - sc) * (1 - sc))))
}

// TruncationMass returns p = Σ_{k=1}^{lmax} (√c)^{k−1}(1−√c), the
// probability that an untruncated √c-walk has length at most l_max
// (Lemma 1). It equals 1 − (√c)^{lmax}.
func TruncationMass(c float64, lmax int) float64 {
	return 1 - math.Pow(math.Sqrt(c), float64(lmax))
}

// TruncationError returns ε_t = (√c)^{lmax}, the per-sample estimator
// error introduced by truncation (Lemma 2).
func TruncationError(c float64, lmax int) float64 {
	return math.Pow(math.Sqrt(c), float64(lmax))
}

// DeriveIterations returns n_r = ⌈3c/(ε−p·ε_t)² · ln(n/δ)⌉ (Lemma 3).
func DeriveIterations(c, eps, delta float64, lmax, n int) int {
	p := TruncationMass(c, lmax)
	et := TruncationError(c, lmax)
	margin := eps - p*et
	nr := 3 * c / (margin * margin) * math.Log(float64(n)/delta)
	return int(math.Ceil(nr))
}

// iterations resolves the effective n_r for a graph with n nodes.
func (p Params) iterations(n int) int {
	if p.Iterations > 0 {
		return p.Iterations
	}
	return DeriveIterations(p.C, p.Eps, p.Delta, p.Lmax, n)
}
