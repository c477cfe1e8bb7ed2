package apps_test

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"distws/internal/apps"
)

type elem struct {
	X  float64
	ID int
}

// specials are the values where an order-preserving float key goes wrong
// first: both zeros, the subnormals, the extremes, the infinities and NaN.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3 * math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0x1p-1023,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestSortXMatchesSortStableFunc checks SortX against the order it
// replaces, element for element (bits and input position), on random
// slices of every length class: empty to three elements, around one
// radix digit, and past it; drawn from a few repeated values, from the
// specials, from [0, 1) and from arbitrary bit patterns (every NaN, every
// subnormal).
func TestSortXMatchesSortStableFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []func() float64{
		func() float64 { return float64(rng.Intn(4)) - 1.5 },
		func() float64 { return specials[rng.Intn(len(specials))] },
		rng.Float64,
		func() float64 { return math.Float64frombits(rng.Uint64()) },
	}
	lengths := []int{0, 1, 2, 3, 4, 255, 256, 257, 1000, 5000}
	for trial := 0; trial < 400; trial++ {
		n := lengths[trial%len(lengths)]
		draw := draws[trial/len(lengths)%len(draws)]
		mixed := trial%3 == 0 // one draw per element instead of one per slice
		s := make([]elem, n)
		for i := range s {
			if mixed {
				draw = draws[rng.Intn(len(draws))]
			}
			s[i] = elem{draw(), i}
		}
		want := slices.Clone(s)
		slices.SortStableFunc(want, func(p, q elem) int { return cmp.Compare(p.X, q.X) })
		apps.SortX(s, func(e *elem) float64 { return e.X })
		for i := range s {
			if math.Float64bits(s[i].X) != math.Float64bits(want[i].X) || s[i].ID != want[i].ID {
				t.Fatalf("trial %d (n=%d): at %d got %v (#%d), want %v (#%d)",
					trial, n, i, s[i].X, s[i].ID, want[i].X, want[i].ID)
			}
		}
	}
}

// TestSortXPlacesNaNFirst pins the documented NaN order: before -Inf, in
// input order, as cmp.Compare has it.
func TestSortXPlacesNaNFirst(t *testing.T) {
	s := []elem{{1, 0}, {math.NaN(), 1}, {math.Inf(-1), 2}, {math.NaN(), 3}, {0, 4}}
	apps.SortX(s, func(e *elem) float64 { return e.X })
	var ids []int
	for _, e := range s {
		ids = append(ids, e.ID)
	}
	if want := []int{1, 3, 2, 4, 0}; !slices.Equal(ids, want) {
		t.Fatalf("order %v, want %v", ids, want)
	}
}
