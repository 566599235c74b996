// Package rng provides deterministic, splittable pseudo-random number
// streams for the simulators and Monte-Carlo estimators in this module.
//
// Every randomized algorithm in the repository takes an explicit seed so
// that experiments are reproducible run-to-run; rng centralizes the
// construction of the underlying generators (PCG from math/rand/v2) and
// the derivation of independent sub-streams for parallel workers.
package rng

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// Source is the concrete generator used throughout the module.
type Source = rand.Rand

// New returns a deterministic generator for the given seed.
func New(seed uint64) *Source {
	return rand.New(rand.NewPCG(seed, mix(seed)))
}

// Split derives an independent sub-stream from a parent seed and a stream
// index. Two Split calls with different indices produce streams that are
// statistically independent for the purposes of Monte-Carlo estimation.
func Split(seed uint64, stream uint64) *Source {
	return rand.New(rand.NewPCG(mix(seed^0x9e3779b97f4a7c15), mix(stream+0x517cc1b727220a95)))
}

// Fast is a devirtualized replica of a Split stream: the same PCG-DXSM
// generator as math/rand/v2, with state held inline and
// Uint64/Float64/IntN replicated bit for bit. Monte-Carlo inner loops
// draw two variates per walk step, and on that path rand.Rand's
// Source-interface dispatch plus the non-inlinable method bodies are a
// measurable fraction of the step. Uint64, Float64 and Bits53 inline;
// IntN is over the inlining budget and stays a call, so a loop that
// must keep the whole draw in registers writes IntN's mapping out
// around an inlined Uint64 (core's walk kernel does). Fast also lives
// on the caller's stack, so a per-candidate stream costs no allocation.
//
// Equivalence with Split is a hard contract: estimators switch between
// rand.Rand and Fast freely and their results must stay byte-identical.
// TestFastMatchesSplit locks the replication, so a future stdlib change
// to the generator or the drawing algorithms would be caught there, not
// as silent score drift.
type Fast struct {
	hi, lo uint64 // 128-bit PCG state, exactly rand.PCG's
}

// FastSplit seeds a Fast generator with exactly the stream
// Split(seed, stream) produces.
func FastSplit(seed, stream uint64) Fast {
	return Fast{hi: mix(seed ^ 0x9e3779b97f4a7c15), lo: mix(stream + 0x517cc1b727220a95)}
}

// Uint64 advances the 128-bit LCG and scrambles with DXSM, identical to
// (*rand.PCG).Uint64 (the constants and operation order are that
// implementation's, restated here so the whole draw inlines).
func (f *Fast) Uint64() uint64 {
	const (
		mulHi    = 2549297995355413924
		mulLo    = 4865540595714422341
		incHi    = 6364136223846793005
		incLo    = 1442695040888963407
		cheapMul = 0xda942042e4dd58b5
	)
	hi, lo := bits.Mul64(f.lo, mulLo)
	hi += f.hi*mulLo + f.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	f.lo, f.hi = lo, hi
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// Float64 returns a uniform variate in [0, 1), identical to
// (*rand.Rand).Float64 on the same stream.
func (f *Fast) Float64() float64 {
	return float64(f.Uint64()<<11>>11) / (1 << 53)
}

// Bits53 returns the 53 uniform bits behind Float64, consuming the same
// single word: Float64() == float64(Bits53()) / 2⁵³. Together with
// Threshold53 it lets a loop test Float64() >= p without the per-draw
// integer→float conversion and float compare.
func (f *Fast) Bits53() uint64 { return f.Uint64() << 11 >> 11 }

// Threshold53 returns the threshold t such that, for every 53-bit b,
// b >= t ⇔ float64(b)/2⁵³ >= p. The equivalence is exact: float64(b) is
// exact for b < 2⁵³, p·2⁵³ only shifts p's exponent (no mantissa bits
// are lost, so the product is the exact real value), and since b is an
// integer the real comparison b >= p·2⁵³ is b >= ⌈p·2⁵³⌉.
func Threshold53(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// IntN returns a uniform variate in [0, n), identical to
// (*rand.Rand).IntN on the same stream: a power of two masks the low
// bits, anything else maps the word with Lemire's multiply and draws
// again on the rare rejection. n must be positive. (rand.Rand routes
// small n through a 32-bit path on 32-bit platforms; for 0 < n < 2³¹
// that path consumes the same words and returns the same values as the
// 64-bit one implemented here, so the replication holds on every
// platform for the node-degree arguments the walks use.)
func (f *Fast) IntN(n int) int {
	u, x := uint64(n), f.Uint64()
	if u&(u-1) == 0 {
		return int(x & (u - 1))
	}
	hi, lo := bits.Mul64(x, u)
	if lo < u {
		thresh := -u % u
		for lo < thresh {
			hi, lo = bits.Mul64(f.Uint64(), u)
		}
	}
	return int(hi)
}

// SeedString maps an arbitrary label to a stable seed (FNV-1a), so
// experiments can be keyed by human-readable names such as
// "fig5/wiki-vote/crashsim/eps=0.025". The mapping is identical across
// processes and platforms.
func SeedString(label string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return h
}

// mix is a splitmix64 finalizer used to decorrelate related seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
