package metrics

import "testing"

// TestHistogramQuantiles pins the log2 histogram's quantile semantics:
// each quantile is an upper bound, and they are monotone.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
	p50, p99, p999 := h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999)
	if p50 < 500 {
		t.Fatalf("p50 bound %d below the true median 500", p50)
	}
	if p50 > p99 || p99 > p999 {
		t.Fatalf("quantiles not monotone: p50=%d p99=%d p999=%d", p50, p99, p999)
	}
	if got := h.Mean(); got != 500 {
		t.Fatalf("Mean = %d, want 500", got)
	}
	var empty Histogram
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Fatalf("empty histogram not zero-valued")
	}
}

// TestHistogramQuantileIsAnUpperBound pins the rank rounding: with three
// samples the 0.99-quantile is the largest of them, so the bound must
// cover it. Truncating 0.99×3 to rank 2 returned the middle sample's
// bucket instead.
func TestHistogramQuantileIsAnUpperBound(t *testing.T) {
	var h Histogram
	for _, v := range []int64{10, 100, 1000} {
		h.Record(v)
	}
	if got := h.Quantile(0.99); got != 1024 {
		t.Fatalf("Quantile(0.99) of {10, 100, 1000} = %d, want 1024, the top of 1000's bucket", got)
	}
	if got := h.Quantile(0.5); got != 128 {
		t.Fatalf("Quantile(0.5) of {10, 100, 1000} = %d, want 128, the top of the median's bucket", got)
	}
}

// TestHistogramBuckets pins the bucket layout both renderers rely on:
// bucket 0 is [0, 2), bucket i is [2^i, 2^(i+1)), and the largest int64
// lands in a bucket whose bound does not overflow.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 1 << 40, 1<<63 - 1} {
		h.Record(v)
	}
	type bucket struct{ lo, hi, n int64 }
	var got []bucket
	h.Buckets(func(lo, hi, n int64) { got = append(got, bucket{lo, hi, n}) })
	want := []bucket{{0, 2, 3}, {2, 4, 2}, {4, 8, 1}, {1 << 40, 1 << 41, 1}, {1 << 62, 1<<63 - 1, 1}}
	if len(got) != len(want) {
		t.Fatalf("buckets %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if got := h.Quantile(1); got != 1<<63-1 {
		t.Fatalf("Quantile(1) = %d, want MaxInt64", got)
	}
}
