package dist

import (
	"testing"
	"testing/quick"
)

// blockRange is the specification PlaceOf inverts: place p owns [lo, hi).
func blockRange(p, n, places int) (lo, hi int) {
	return p * n / places, (p + 1) * n / places
}

func TestDistArrayBlockDistribution(t *testing.T) {
	// 100 over 4 places: 25 each.
	for p := 0; p < 4; p++ {
		lo, hi := blockRange(p, 100, 4)
		if hi-lo != 25 {
			t.Fatalf("place %d owns %d elements, want 25", p, hi-lo)
		}
		for i := lo; i < hi; i++ {
			if got := PlaceOf(i, 100, 4); got != p {
				t.Fatalf("PlaceOf(%d) = %d, want %d", i, got, p)
			}
		}
	}
}

func TestDistArrayUnevenDistribution(t *testing.T) {
	owned := make([]int, 3)
	for i := 0; i < 10; i++ {
		owned[PlaceOf(i, 10, 3)]++
	}
	for p, n := range owned {
		if n != 3 && n != 4 {
			t.Fatalf("place %d owns %d of 10 elements over 3 places, want 3 or 4", p, n)
		}
	}
}

func TestDistArrayPanics(t *testing.T) {
	assertPanics(t, func() { PlaceOf(4, 4, 2) })
	assertPanics(t, func() { PlaceOf(-1, 4, 2) })
	assertPanics(t, func() { PlaceOf(0, -1, 2) })
	assertPanics(t, func() { PlaceOf(0, 4, 0) })
}

// Property: every index belongs to exactly the place whose block range
// contains it, and the ranges partition [0, n).
func TestDistArrayPartitionProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)%200 + 1
		places := int(pRaw)%16 + 1
		covered := 0
		for p := 0; p < places; p++ {
			lo, hi := blockRange(p, n, places)
			covered += hi - lo
			for i := lo; i < hi; i++ {
				if PlaceOf(i, n, places) != p {
					return false
				}
			}
		}
		return covered == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: block sizes differ by at most one element.
func TestDistArrayBalanceProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)%500 + 1
		places := int(pRaw)%16 + 1
		owned := make([]int, places)
		for i := 0; i < n; i++ {
			owned[PlaceOf(i, n, places)]++
		}
		minSz, maxSz := n, 0
		for _, sz := range owned {
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	f()
}
