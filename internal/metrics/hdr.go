package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// LatencyHistogram is an HDR-style fixed-bucket latency histogram over
// nanosecond values: power-of-two major buckets subdivided into 8 linear
// sub-buckets, giving ≤12.5% relative error across the full int64 range
// with a fixed 488-slot layout. Recording is a single atomic add on the
// hot path (no locks, no allocation), so concurrent recorders — the
// per-provider fetch goroutines of one recovery, or many recoveries at
// once — share one histogram safely. Histograms with the same layout
// merge by bucket-wise addition, which is what lets per-node histograms
// roll up into a cluster-wide view.
type LatencyHistogram struct {
	counts [hdrBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // stores value+1 so zero means "unset"
	max    atomic.Int64
}

const (
	// hdrSubBits is the linear subdivision of each power-of-two range.
	hdrSubBits = 3
	hdrSub     = 1 << hdrSubBits
	// hdrBuckets covers every non-negative int64: values 0..7 get exact
	// buckets, then 8 sub-buckets per power of two up to 2^63-1.
	hdrBuckets = 488
)

// hdrIndex maps a non-negative value to its bucket.
func hdrIndex(v int64) int {
	if v < hdrSub {
		return int(v)
	}
	m := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= 3
	return (m-3)*hdrSub + int(v>>(uint(m)-hdrSubBits))
}

// BucketLower returns the inclusive lower bound of bucket i; values v with
// BucketLower(i) <= v < BucketLower(i+1) land in bucket i.
func BucketLower(i int) int64 {
	if i < hdrSub {
		return int64(i)
	}
	m := i/hdrSub + 2
	return int64(i-(m-3)*hdrSub) << (uint(m) - hdrSubBits)
}

// BucketUpper returns the exclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i+1 >= hdrBuckets {
		return math.MaxInt64
	}
	return BucketLower(i + 1)
}

// Buckets returns the number of buckets in the fixed layout.
func Buckets() int { return hdrBuckets }

// Record adds one observation (negative values clamp to zero).
func (h *LatencyHistogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n observations that together sum to total, each counted
// at their mean total/n: what a caller that timed a batch of n
// operations with one pair of clock reads knows. Count and Sum stay
// exact; buckets, Min, Max and so the quantiles see the mean (negative
// totals clamp to zero, n <= 0 records nothing).
func (h *LatencyHistogram) RecordN(total, n int64) {
	if n <= 0 {
		return
	}
	if total < 0 {
		total = 0
	}
	v := total / n
	h.counts[hdrIndex(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(total)
	for {
		cur := h.min.Load()
		if cur != 0 && cur-1 <= v {
			break
		}
		if h.min.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= v {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *LatencyHistogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded values.
func (h *LatencyHistogram) Sum() int64 { return h.sum.Load() }

// Min returns the smallest recorded value (0 when empty).
func (h *LatencyHistogram) Min() int64 {
	v := h.min.Load()
	if v == 0 {
		return 0
	}
	return v - 1
}

// Max returns the largest recorded value (0 when empty).
func (h *LatencyHistogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean of recorded values (0 when empty).
func (h *LatencyHistogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) as the
// midpoint of the bucket holding the target rank, clamped to the observed
// min/max so sparse histograms do not over-report their bucket width.
func (h *LatencyHistogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	seen := int64(0)
	for i := 0; i < hdrBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			lo, hi := BucketLower(i), BucketUpper(i)
			mid := lo + (hi-lo)/2
			if min := h.Min(); mid < min {
				mid = min
			}
			if max := h.Max(); mid > max {
				mid = max
			}
			return mid
		}
	}
	return h.Max()
}

// Merge adds o's observations into h (bucket-wise; both keep recording).
// Merging is associative and commutative, so per-node histograms can be
// rolled up in any order.
func (h *LatencyHistogram) Merge(o *LatencyHistogram) {
	if o == nil {
		return
	}
	for i := 0; i < hdrBuckets; i++ {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	if om := o.min.Load(); om != 0 {
		for {
			cur := h.min.Load()
			if cur != 0 && cur <= om {
				break
			}
			if h.min.CompareAndSwap(cur, om) {
				break
			}
		}
	}
	if om := o.max.Load(); om != 0 {
		for {
			cur := h.max.Load()
			if cur >= om {
				break
			}
			if h.max.CompareAndSwap(cur, om) {
				break
			}
		}
	}
}

// BucketCount returns the observation count of bucket i.
func (h *LatencyHistogram) BucketCount(i int) int64 {
	if i < 0 || i >= hdrBuckets {
		return 0
	}
	return h.counts[i].Load()
}

// NonEmptyBuckets returns the indices of buckets holding observations, in
// ascending order — the exporter walks these instead of all 488 slots.
func (h *LatencyHistogram) NonEmptyBuckets() []int {
	var out []int
	for i := 0; i < hdrBuckets; i++ {
		if h.counts[i].Load() != 0 {
			out = append(out, i)
		}
	}
	return out
}
