package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample: the smallest value with at least p percent of the
// sample at or below it. An empty sample yields 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(len(asc), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile in a
// sample of n.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9 % of 10 000 is 9990, not 9990.000000000001
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the 50th percentile of xs (any order).
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// tailLadder lists the percentiles a tail may be reported at, ascending.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie strictly beyond a reported
// percentile for it to be more than the luck of one or two outliers.
const minBeyond = 10

// tailPercentile picks the highest rung of tailLadder that still has at
// least minBeyond of the n samples beyond it; with too few samples for
// any rung it falls back to the median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ints converts nanosecond samples for the float helpers.
func ints(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
