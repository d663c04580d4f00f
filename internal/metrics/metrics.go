// Package metrics provides the statistics used by the evaluation
// harness: summary stats, percentiles and latency histograms.
package metrics

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty reports a statistic over no samples.
var ErrEmpty = errors.New("metrics: no samples")

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0], nil
	}
	if p >= 100 {
		return sorted[len(sorted)-1], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// FractionBelow returns the fraction of samples strictly below the
// threshold (used for claims like "95% of nodes store < 50 shards").
func FractionBelow(xs []float64, threshold float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs)), nil
}
