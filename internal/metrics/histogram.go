package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 buckets: bucket i counts observations
// in [2^i, 2^(i+1)), bucket 0 also everything below 1. A positive int64
// has at most 63 bits, so no observation is out of range.
const histBuckets = 63

// Histogram is the repository's one log2 histogram: the service's
// per-tenant latency quantiles and the trace summary's steal-latency table
// both read it. Recording is lock-free and allocation-free; quantiles and
// buckets are read from the live counts, each of which only grows, so a
// concurrent scrape sees a valid (if slightly stale) distribution. The
// zero value is empty and ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	b := 0
	if v > 1 {
		b = bits.Len64(uint64(v)) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / n
}

// bound returns the exclusive upper bound of bucket b.
func bound(b int) int64 {
	if b >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(b+1)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the top
// of the first bucket at which the cumulative count reaches ⌈q×total⌉, so
// at least that many observations lie below the returned value.
// Resolution is one octave — what tail-latency monitoring needs, with no
// per-sample storage. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		if cum >= need {
			return bound(b)
		}
	}
	return math.MaxInt64
}

// Buckets calls f for every non-empty bucket in ascending order with the
// bucket's range [lo, hi) and its count.
func (h *Histogram) Buckets(f func(lo, hi, count int64)) {
	for b := range h.buckets {
		if c := h.buckets[b].Load(); c > 0 {
			lo := int64(0)
			if b > 0 {
				lo = int64(1) << uint(b)
			}
			f(lo, bound(b), c)
		}
	}
}
