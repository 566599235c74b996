package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"crashsim/internal/rng"
)

// qhOracle applies the histogram's documented rank rule to the exact
// sorted sample: the estimate must equal the upper bound of the bucket
// containing the order statistic at rank floor(q*n) (clamped), capped
// at the sample maximum, and overshoot that order statistic by at most
// the relative error bound.
func qhOracle(sorted []time.Duration, q float64) time.Duration {
	target := int(q * float64(len(sorted)))
	if target >= len(sorted) {
		target = len(sorted) - 1
	}
	return min(time.Duration(qhUpper(qhIndex(uint64(sorted[target])))), sorted[len(sorted)-1])
}

// adversarialSamples builds distributions chosen to stress the
// log-linear bucketing: exact small values, values hugging bucket
// edges from both sides, point masses, heavy tails spanning nine
// orders of magnitude, and a bimodal mix with a lone extreme outlier.
func adversarialSamples() map[string][]time.Duration {
	out := map[string][]time.Duration{}

	// Every representable small value, where buckets are exact.
	small := make([]time.Duration, 0, 200)
	for v := 0; v < 200; v++ {
		small = append(small, time.Duration(v))
	}
	out["small-exact"] = small

	// Values one off each side of power-of-two and sub-bucket edges.
	var edges []time.Duration
	for exp := uint(6); exp < 40; exp++ {
		base := uint64(1) << exp
		for _, v := range []uint64{base - 1, base, base + 1} {
			edges = append(edges, time.Duration(v))
		}
		width := base >> qhSubBits
		for sub := uint64(1); sub < qhSubs; sub += 7 {
			e := base + sub*width
			edges = append(edges, time.Duration(e-1), time.Duration(e))
		}
	}
	out["bucket-edges"] = edges

	// A point mass: every quantile is the same value.
	mass := make([]time.Duration, 1000)
	for i := range mass {
		mass[i] = 1234567 * time.Nanosecond
	}
	out["point-mass"] = mass

	// Log-uniform heavy tail: 10ns to 10s.
	r := rng.New(7)
	tail := make([]time.Duration, 5000)
	for i := range tail {
		tail[i] = time.Duration(math.Pow(10, 1+8*r.Float64()))
	}
	out["log-uniform"] = tail

	// Bimodal with one extreme outlier: the p999/max split the bench
	// harness must get right when one request stalls.
	bi := make([]time.Duration, 0, 2001)
	for i := 0; i < 1500; i++ {
		bi = append(bi, time.Duration(900+r.IntN(200))*time.Microsecond)
	}
	for i := 0; i < 500; i++ {
		bi = append(bi, time.Duration(90+r.IntN(20))*time.Millisecond)
	}
	bi = append(bi, 45*time.Second)
	out["bimodal-outlier"] = bi

	return out
}

func TestQuantileHistogramMatchesOracle(t *testing.T) {
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for name, sample := range adversarialSamples() {
		h := new(QuantileHistogram)
		for _, d := range sample {
			h.Observe(d)
		}
		sorted := append([]time.Duration(nil), sample...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if got, want := h.Count(), uint64(len(sample)); got != want {
			t.Fatalf("%s: count %d, want %d", name, got, want)
		}
		if got, want := h.Max(), sorted[len(sorted)-1]; got != want {
			t.Errorf("%s: max %v, want exact %v", name, got, want)
		}
		for _, q := range quantiles {
			got := h.Quantile(q)
			want := qhOracle(sorted, q)
			if got != want {
				t.Errorf("%s: q=%g got %v, oracle says %v", name, q, got, want)
			}
			if got > h.Max() {
				t.Errorf("%s: q=%g estimate %v exceeds the exact max %v", name, q, got, h.Max())
			}
			// The documented error contract, checked against the true
			// order statistic rather than the bucketed oracle.
			target := int(q * float64(len(sorted)))
			if target >= len(sorted) {
				target = len(sorted) - 1
			}
			exact := sorted[target]
			if got < exact {
				t.Errorf("%s: q=%g estimate %v undershoots exact %v", name, q, got, exact)
			}
			bound := float64(exact)*(1+1.0/qhSubs) + 1
			if float64(got) > bound {
				t.Errorf("%s: q=%g estimate %v exceeds error bound %v (exact %v)", name, q, got, time.Duration(bound), exact)
			}
		}
	}
}

func TestQuantileBucketGeometry(t *testing.T) {
	// qhUpper must be the exact inverse upper edge of qhIndex: every
	// bucket's upper bound maps back into the bucket, and the next
	// nanosecond maps out of it.
	for i := 0; i < qhBuckets; i++ {
		u := qhUpper(i)
		if got := qhIndex(u); got != i {
			t.Fatalf("qhIndex(qhUpper(%d)=%d) = %d", i, u, got)
		}
		if u != math.MaxUint64 {
			if got := qhIndex(u + 1); got != i+1 {
				t.Fatalf("qhIndex(%d+1) = %d, want %d", u, got, i+1)
			}
		}
	}
	if got := qhIndex(math.MaxUint64); got != qhBuckets-1 {
		t.Fatalf("max value lands in bucket %d, want %d", got, qhBuckets-1)
	}
}

func TestQuantileHistogramConcurrentObserve(t *testing.T) {
	// Race coverage: concurrent Observe, Merge and Snapshot on shared
	// histograms. Correctness check: total count and sum survive.
	const workers = 8
	const perWorker = 2000
	shared := new(QuantileHistogram)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w))
			local := new(QuantileHistogram)
			for i := 0; i < perWorker; i++ {
				d := time.Duration(r.IntN(1 << 30))
				shared.Observe(d)
				local.Observe(d)
				if i%512 == 0 {
					_ = shared.Snapshot()
				}
			}
			shared.Merge(local)
		}(w)
	}
	wg.Wait()
	if got, want := shared.Count(), uint64(2*workers*perWorker); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	var bucketSum uint64
	for i := range shared.counts {
		bucketSum += shared.counts[i].Load()
	}
	if bucketSum != shared.Count() {
		t.Fatalf("bucket counts sum to %d, count says %d", bucketSum, shared.Count())
	}
}

func TestQuantileHistogramMergeAssociative(t *testing.T) {
	r := rng.New(99)
	mk := func() *QuantileHistogram {
		h := new(QuantileHistogram)
		for i, n := 0, 100+r.IntN(400); i < n; i++ {
			h.Observe(time.Duration(r.IntN(1 << 34)))
		}
		return h
	}
	a, b, c := mk(), mk(), mk()

	// (a+b)+c
	left := new(QuantileHistogram)
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)
	// a+(b+c)
	bc := new(QuantileHistogram)
	bc.Merge(b)
	bc.Merge(c)
	right := new(QuantileHistogram)
	right.Merge(a)
	right.Merge(bc)
	// c+b+a: commutativity too.
	rev := new(QuantileHistogram)
	rev.Merge(c)
	rev.Merge(b)
	rev.Merge(a)

	want := left.Snapshot()
	for name, h := range map[string]*QuantileHistogram{"a+(b+c)": right, "c+b+a": rev} {
		if got := h.Snapshot(); got != want {
			t.Errorf("%s snapshot %+v, want %+v", name, got, want)
		}
	}
	// And the merged result equals observing everything into one
	// histogram directly.
	direct := new(QuantileHistogram)
	direct.Merge(a)
	for i := range b.counts {
		for n := b.counts[i].Load(); n > 0; n-- {
			direct.counts[i].Add(1)
		}
	}
	direct.count.Add(b.count.Load())
	direct.sumNs.Add(b.sumNs.Load())
	if m := b.maxNs.Load(); m > direct.maxNs.Load() {
		direct.maxNs.Store(m)
	}
	direct.Merge(c)
	if got := direct.Snapshot(); got != want {
		t.Errorf("bucket-replayed merge %+v, want %+v", got, want)
	}
}

func TestQuantileHistogramEmpty(t *testing.T) {
	h := new(QuantileHistogram)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
	snap := h.Snapshot()
	if snap != (QuantileSnapshot{}) {
		t.Fatalf("empty snapshot %+v, want zero", snap)
	}
	if snap.Mean() != 0 {
		t.Fatalf("empty mean %v", snap.Mean())
	}
}

func TestRegistryQuantile(t *testing.T) {
	r := NewRegistry()
	q := r.Quantile("server.latency")
	if r.Quantile("server.latency") != q {
		t.Fatal("second lookup returned a different histogram")
	}
	q.Observe(3 * time.Millisecond)
	snap := r.Snapshot()
	qs, ok := snap.Quantiles["server.latency"]
	if !ok {
		t.Fatal("snapshot missing quantile histogram")
	}
	if qs.Count != 1 || qs.Max == 0 {
		t.Fatalf("quantile snapshot %+v", qs)
	}
	// Delta passes the cumulative summary through.
	d := snap.Delta(Snapshot{})
	if d.Quantiles["server.latency"] != qs {
		t.Fatalf("delta altered quantile summary: %+v", d.Quantiles["server.latency"])
	}
}
