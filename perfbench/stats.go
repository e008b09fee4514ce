package main

import (
	"sort"
	"time"
)

// minBeyond is the number of samples a tail percentile needs above its
// rank before it is reported: a p90 over fewer than 100 samples would
// rest on fewer than ten observations and is withheld.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p percent of all samples at or below
// it. ok is false for an empty input, and for a tail percentile
// (p > 50) with fewer than minBeyond samples above its rank.
func percentile(sorted []float64, p int) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (p*n + 99) / 100 // ceil(p/100 * n) in integers
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 50)
	return v
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
