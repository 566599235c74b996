package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is the sample floor of every reported percentile: at least
// this many samples must lie above it, so a p50 needs 20 samples and a
// p90 needs 100.
const minBeyond = 10

// percentile returns the exact nearest-rank q-quantile of samples
// (0 < q < 1) and whether the sample floor holds. samples is sorted in
// place.
func percentile(samples []time.Duration, q float64) (time.Duration, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], len(samples)-rank >= minBeyond
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianMS is the median of ds in milliseconds; 0 for no samples.
func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of nothing")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geometric mean of non-positive value %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
