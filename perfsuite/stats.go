package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing's tail may be reported at,
// highest first. A fixed ladder keeps the reported percentile the same
// across runs whose sample counts differ slightly.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// summary is one timing distribution as the benchmark reports it: the
// median, the highest ladder percentile with at least minBeyond samples
// beyond it, and the sample count.
type summary struct {
	N      int
	Median float64
	TailP  float64 // the percentile Tail sits at (0 when N is too small)
	Tail   float64
}

// summarize reports xs by the median-and-tail rule. xs is not modified.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = medianSorted(sorted)
	s.TailP, s.Tail = tailPercentile(sorted)
	return s
}

// tailPercentile returns the highest ladder percentile of the sorted
// samples that has at least minBeyond samples above it, with its
// nearest-rank value. With fewer than 2*minBeyond samples no percentile
// qualifies and the maximum is returned at percentile 0.
func tailPercentile(sorted []float64) (p, v float64) {
	n := len(sorted)
	for _, p := range tailLadder {
		idx := nearestRank(p, n)
		if n-1-idx >= minBeyond {
			return p, sorted[idx]
		}
	}
	if n == 0 {
		return 0, 0
	}
	return 0, sorted[n-1]
}

// nearestRank is the 0-based index of the p-th percentile of n sorted
// samples: the smallest sample with at least p% of samples at or below it.
func nearestRank(p float64, n int) int {
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // tolerate float error in p*n
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[nearestRank(p, len(sorted))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return medianSorted(sorted)
}

func medianSorted(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
