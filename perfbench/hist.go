package main

import "math/bits"

// subBits sets the histogram's resolution: every power-of-two range
// [2^k, 2^(k+1)) is split into 2^subBits equal buckets, so a bucket
// is at most 1/128 (0.78 %) of its lower edge wide and a percentile
// read at the bucket midpoint is within 0.4 % of the exact sample.
// Values below 2^(subBits+1) get a bucket each and are exact.
const subBits = 7

const (
	subCount = 1 << subBits
	// numBuckets covers every uint64: the largest shift is
	// 64-(subBits+1), and each shift owns subCount buckets above the
	// 2·subCount exact ones.
	numBuckets = (64-subBits)*subCount + subCount
)

// Hist is a log-linear latency histogram with bounded relative
// error. The zero value is empty and ready to use. It is not safe
// for concurrent use: each load goroutine records into its own and
// the results are merged after the goroutines have stopped.
type Hist struct {
	counts [numBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

func bucketOf(v uint64) int {
	shift := bits.Len64(v) - (subBits + 1)
	if shift <= 0 {
		return int(v)
	}
	return shift*subCount + int(v>>uint(shift))
}

// bucketRange returns the smallest value of bucket i and its width.
func bucketRange(i int) (lo, width uint64) {
	if i < 2*subCount {
		return uint64(i), 1
	}
	shift := i>>subBits - 1
	top := uint64(i - shift*subCount)
	return top << uint(shift), 1 << uint(shift)
}

// Record adds one sample.
func (h *Hist) Record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count is the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Mean is the exact, untrimmed mean of the samples.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the nearest-rank q-quantile (the ⌈q·n⌉-th smallest
// sample) read at the midpoint of its bucket.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, w := bucketRange(i)
			return float64(lo) + float64(w-1)/2
		}
	}
	return float64(h.max)
}
