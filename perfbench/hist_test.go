package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketRangeCoversValue(t *testing.T) {
	vals := []uint64{0, 1, 255, 256, 257, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint64}
	for _, v := range vals {
		i := bucketOf(v)
		lo, w := bucketRange(i)
		if v < lo || v-lo >= w {
			t.Errorf("value %d in bucket %d = [%d, %d+%d)", v, i, lo, lo, w)
		}
		if lo >= 2*subCount && float64(w)/float64(lo) > 1.0/subCount {
			t.Errorf("bucket %d relative width %g > 1/%d", i, float64(w)/float64(lo), subCount)
		}
	}
}

// TestQuantileMatchesExact compares the histogram against exact
// nearest-rank percentiles of a seeded heavy-tailed sample shaped
// like draw latencies (a fast mode near 70 ns plus rare ms stalls).
func TestQuantileMatchesExact(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var h Hist
		sample := make([]uint64, 200000)
		var sum float64
		for i := range sample {
			v := uint64(60 + rng.ExpFloat64()*20)
			if rng.Intn(1000) == 0 {
				v = uint64(1e6 * math.Exp(rng.NormFloat64()))
			}
			sample[i] = v
			sum += float64(v)
			h.Record(v)
		}
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
			exact := float64(sample[int(math.Ceil(q*float64(len(sample))))-1])
			got := h.Quantile(q)
			if rel := math.Abs(got-exact) / exact; rel > 0.5/subCount {
				t.Errorf("seed %d q=%g: histogram %g, exact %g (rel err %.4f)", seed, q, got, exact, rel)
			}
		}
		if mean := sum / float64(len(sample)); math.Abs(h.Mean()-mean) > 1e-9*mean {
			t.Errorf("seed %d: mean %g, exact %g", seed, h.Mean(), mean)
		}
	}
}

func TestMergeEqualsCombinedRecording(t *testing.T) {
	var a, b, both Hist
	for v := uint64(1); v < 1<<22; v = v*3 + 1 {
		a.Record(v)
		both.Record(v)
		b.Record(v * 7)
		both.Record(v * 7)
	}
	a.Merge(&b)
	if a.counts != both.counts || a.n != both.n || a.sum != both.sum || a.max != both.max {
		t.Fatal("merged histogram differs from recording both samples into one")
	}
}
