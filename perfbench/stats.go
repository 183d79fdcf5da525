package main

import (
	"math"
	"sort"
)

// summary is the reported shape of one latency or duration series: the
// median, and the p90 only when at least minBeyond samples lie above it
// (fewer make the tail a handful of outliers, not a percentile).
type summary struct {
	N     int
	P50   float64
	P90   float64
	HasP9 bool
}

// minBeyond is how many samples must lie beyond a reported p90.
const minBeyond = 10

// summarize sorts a copy of xs and returns its summary. An empty series
// has N == 0 and no percentiles.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.P50 = median(v)
	s.P90, s.HasP9 = p90(v)
	return s
}

// median of a sorted series: the middle sample, or the mean of the two
// middle samples for an even count.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// p90 of a sorted series by the nearest-rank rule. ok is false when
// fewer than minBeyond samples lie beyond the rank, i.e. below 100
// samples.
func p90(sorted []float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(0.9 * float64(n))) // 1-based
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}
