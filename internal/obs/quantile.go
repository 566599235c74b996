package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Quantile-histogram geometry: log-linear (HDR-style) buckets over
// nanosecond durations. Values below 2^qhSubBits nanoseconds land in
// their own exact bucket; above that, each power-of-two octave is
// divided into 2^qhSubBits linear sub-buckets, so every bucket's width
// is at most 1/2^qhSubBits of the values it holds. Reported quantiles
// are bucket upper bounds, which bounds the relative overestimate at
// 2^-qhSubBits (~3.1%) — tight enough for SLO percentiles, while the
// whole histogram stays a flat fixed-size array of atomics that can be
// recorded into lock-free and merged bucket-wise. This is the
// stats-array technique tile38 uses for its serving percentiles,
// with log-linear instead of uniform buckets so one layout spans
// nanoseconds to minutes.
const (
	qhSubBits = 5
	qhSubs    = 1 << qhSubBits
	// qhBuckets covers every uint64 nanosecond value: octaves
	// qhSubBits..63 each contribute qhSubs buckets on top of the qhSubs
	// exact low buckets.
	qhBuckets = qhSubs * (64 - qhSubBits + 1)
)

// qhIndex maps a nanosecond value to its bucket.
func qhIndex(v uint64) int {
	if v < qhSubs {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - qhSubBits      // sub-bucket width is 2^exp
	return exp<<qhSubBits + int(v>>uint(exp)) // mantissa in [qhSubs, 2*qhSubs)
}

// qhUpper returns the largest nanosecond value mapping to bucket i:
// the inverse of qhIndex, evaluated at the bucket's upper edge.
func qhUpper(i int) uint64 {
	if i < qhSubs {
		return uint64(i)
	}
	exp := uint(i>>qhSubBits - 1)
	mant := uint64(i&(qhSubs-1)) + qhSubs
	return (mant+1)<<exp - 1
}

// QuantileHistogram records durations into log-linear buckets and
// reports percentiles with bounded relative error (see the geometry
// constants above). Observe is two atomic adds plus an atomic max
// loop; there is no lock anywhere, so one histogram can be shared by
// every goroutine of a load generator or server. Alternatively each
// worker can record into its own histogram and Merge them afterwards —
// merging is bucket-wise addition, so it is associative, commutative,
// and yields exactly the histogram a shared instance would have held.
//
// The zero value is ready to use.
type QuantileHistogram struct {
	counts [qhBuckets]atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Uint64
	maxNs  atomic.Uint64
}

// Observe records one duration. Negative durations count as zero.
func (h *QuantileHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	// The maximum is raised before the value is counted, so a reader
	// that sees the count also sees a maximum at least this large
	// (Quantile clamps to it).
	h.raiseMax(v)
	h.counts[qhIndex(v)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(v)
}

func (h *QuantileHistogram) raiseMax(v uint64) {
	for {
		old := h.maxNs.Load()
		if v <= old || h.maxNs.CompareAndSwap(old, v) {
			return
		}
	}
}

// Since is shorthand for Observe(time.Since(start)).
func (h *QuantileHistogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of recorded observations.
func (h *QuantileHistogram) Count() uint64 { return h.count.Load() }

// Merge adds other's observations into h bucket-wise. Concurrent
// Observe calls on either histogram are safe; observations landing
// mid-merge end up in exactly one of the two, as with any snapshot of
// a live histogram.
func (h *QuantileHistogram) Merge(other *QuantileHistogram) {
	if other == nil {
		return
	}
	h.raiseMax(other.maxNs.Load())
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sumNs.Add(other.sumNs.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) as a duration. Each
// bucket's mass is attributed to its upper bound, clamped to the exact
// maximum (no observation lies above it), so the estimate never
// undershoots the true order statistic, never exceeds Max, and
// overshoots by at most 2^-qhSubBits relative (plus one nanosecond of
// integer truncation). Returns 0 for an empty histogram.
func (h *QuantileHistogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > target {
			return time.Duration(min(qhUpper(i), h.maxNs.Load()))
		}
	}
	// Unreachable when count is consistent with the buckets; fall back
	// to the recorded maximum.
	return time.Duration(h.maxNs.Load())
}

// Max returns the exact largest observed duration (not bucketed).
func (h *QuantileHistogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// QuantileSnapshot is a point-in-time percentile summary, in seconds,
// ready for JSON. Max is exact; the percentiles carry the bucketing
// error bound documented on QuantileHistogram.
type QuantileSnapshot struct {
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50        float64 `json:"p50"`
	P90        float64 `json:"p90"`
	P99        float64 `json:"p99"`
	P999       float64 `json:"p999"`
	Max        float64 `json:"max"`
}

// Mean returns the average observed latency in seconds (0 when empty).
func (s QuantileSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumSeconds / float64(s.Count)
}

// Snapshot summarizes the histogram's current state. Like every
// snapshot in this package it tolerates concurrent Observe calls; the
// percentiles then reflect some recent consistent-enough state.
func (h *QuantileHistogram) Snapshot() QuantileSnapshot {
	return QuantileSnapshot{
		Count:      h.count.Load(),
		SumSeconds: time.Duration(h.sumNs.Load()).Seconds(),
		P50:        h.Quantile(0.50).Seconds(),
		P90:        h.Quantile(0.90).Seconds(),
		P99:        h.Quantile(0.99).Seconds(),
		P999:       h.Quantile(0.999).Seconds(),
		Max:        h.Max().Seconds(),
	}
}
