package kinds

import (
	"sort"

	"sr3/internal/metrics"
)

// Hist is a serialisable snapshot of a metrics.LatencyHistogram: bucket
// index -> count, over the stock 488-bucket layout. Snapshots of one
// histogram subtract, which is how the harness gets the distribution of
// the measurement window alone from two cumulative digests.
type Hist struct {
	Count   int64         `json:"count"`
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// SnapshotHist copies h's non-empty buckets.
func SnapshotHist(h *metrics.LatencyHistogram) Hist {
	s := Hist{Buckets: map[int]int64{}}
	for _, i := range h.NonEmptyBuckets() {
		c := h.BucketCount(i)
		s.Buckets[i] = c
		s.Count += c
	}
	return s
}

// Sub returns the observations recorded after the earlier snapshot.
func (h Hist) Sub(earlier Hist) Hist {
	out := Hist{Buckets: map[int]int64{}}
	for i, c := range h.Buckets {
		if d := c - earlier.Buckets[i]; d > 0 {
			out.Buckets[i] = d
			out.Count += d
		}
	}
	return out
}

// Quantile estimates the q-quantile in the histogram's unit, spreading
// each bucket's observations evenly over its range. The stock Quantile
// returns bucket midpoints, which are 12.5 % apart: two runs would read
// either identical or a whole bucket apart.
func (h Hist) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	idx := make([]int, 0, len(h.Buckets))
	for i := range h.Buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	rank := q * float64(h.Count)
	seen := 0.0
	for _, i := range idx {
		c := float64(h.Buckets[i])
		if seen+c >= rank {
			lo, hi := float64(metrics.BucketLower(i)), float64(metrics.BucketUpper(i))
			return lo + (hi-lo)*(rank-seen)/c
		}
		seen += c
	}
	return float64(metrics.BucketUpper(idx[len(idx)-1]))
}
