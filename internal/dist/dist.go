// Package dist is the block distribution the paper's PGAS collections
// place their elements by (the DistArray of the Turing Ring pseudo-code in
// §IV-B): all places share an address space here, so what an application
// needs from a distributed array is only where each element lives, to
// spawn work there.
package dist

import "fmt"

// PlaceOf returns the place owning index i of an n-element array
// block-distributed over places places: place p owns the contiguous index
// range [p·n/P, (p+1)·n/P).
func PlaceOf(i, n, places int) int {
	if places <= 0 {
		panic(fmt.Sprintf("dist: PlaceOf places=%d", places))
	}
	if i < 0 || i >= n {
		panic(fmt.Sprintf("dist: index %d out of range [0,%d)", i, n))
	}
	// Inverse of the block bounds, guarded against rounding at block
	// boundaries.
	p := i * places / n
	for p > 0 && i < p*n/places {
		p--
	}
	for p < places-1 && i >= (p+1)*n/places {
		p++
	}
	return p
}
