package deque

import (
	"testing"
	"testing/quick"
)

// The owner's take is the thieves' head take: oldest first.
func TestRelaxedOwnerTakesOldest(t *testing.T) {
	d := NewRelaxed[int]()
	for i := 1; i <= 3; i++ {
		d.Push(i)
	}
	for want := 1; want <= 3; want++ {
		v, ok := d.Pop()
		if !ok || v != want {
			t.Fatalf("Pop() = %d,%v, want %d,true", v, ok, want)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Fatalf("Pop() on empty queue should report false")
	}
}

func TestRelaxedStealOldest(t *testing.T) {
	d := NewRelaxed[string]()
	d.Push("oldest")
	d.Push("newest")
	if v, ok := d.Steal(); !ok || v != "oldest" {
		t.Fatalf("Steal() = %q,%v, want oldest,true", v, ok)
	}
	if v, ok := d.Pop(); !ok || v != "newest" {
		t.Fatalf("Pop() = %q,%v, want newest,true", v, ok)
	}
	if _, ok := d.Steal(); ok {
		t.Fatalf("Steal() on empty queue should report false")
	}
}

func TestRelaxedGrowth(t *testing.T) {
	d := NewRelaxed[int]()
	const n = 1000
	for i := 0; i < n; i++ {
		d.Push(i)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for want := 0; want < n; want++ {
		v, ok := d.Pop()
		if !ok || v != want {
			t.Fatalf("Pop() = %d,%v, want %d", v, ok, want)
		}
	}
}

// The window stays consistent across many empty/non-empty transitions,
// whichever end's method takes the last element.
func TestRelaxedReuseAfterEmpty(t *testing.T) {
	d := NewRelaxed[int]()
	for round := 0; round < 50; round++ {
		d.Push(round * 2)
		d.Push(round*2 + 1)
		if v, ok := d.Steal(); !ok || v != round*2 {
			t.Fatalf("round %d: Steal = %d,%v, want %d", round, v, ok, round*2)
		}
		if v, ok := d.Pop(); !ok || v != round*2+1 {
			t.Fatalf("round %d: Pop = %d,%v, want %d", round, v, ok, round*2+1)
		}
		if d.Len() != 0 {
			t.Fatalf("round %d: Len = %d after draining", round, d.Len())
		}
	}
}

// Property: with no concurrency there are no races, so the relaxed queue
// must behave exactly like the strict ones — mixed Pop/Steal conserves
// every element with no duplicates.
func TestRelaxedSequentialConservation(t *testing.T) {
	f := func(xs []uint8, stealMask []bool) bool {
		d := NewRelaxed[uint8]()
		counts := map[uint8]int{}
		for _, x := range xs {
			d.Push(x)
			counts[x]++
		}
		for i := 0; i < len(xs); i++ {
			var v uint8
			var ok bool
			if i < len(stealMask) && stealMask[i] {
				v, ok = d.Steal()
			} else {
				v, ok = d.Pop()
			}
			if !ok {
				return false
			}
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return d.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A stale thief's backwards top store may re-expose indices a grow
// discarded: their slots are nil in the new buffer. A take must step over
// them as already taken, neither dereference them nor report the queue
// empty with live elements behind them.
func TestRelaxedPopSurvivesStaleTopAfterGrow(t *testing.T) {
	for _, name := range []string{"Pop", "Steal"} {
		d := NewRelaxed[int]()
		take := d.Pop
		if name == "Steal" {
			take = d.Steal
		}
		// Advance top to 4, then fill until the initial capacity (8)
		// forces a grow: the new buffer's slots below index 4 stay nil.
		for i := 0; i < 4; i++ {
			d.Push(i)
		}
		for i := 0; i < 4; i++ {
			if _, ok := d.Steal(); !ok {
				t.Fatalf("setup Steal %d failed", i)
			}
		}
		for i := 4; i < 13; i++ {
			d.Push(i)
		}
		// Simulate the stale thief: top regresses to 0, re-exposing the
		// nil slots 0..3.
		d.top.Store(0)
		for want := 4; want < 13; want++ {
			if v, ok := take(); !ok || v != want {
				t.Fatalf("%s past the grow point = %d,%v, want %d,true", name, v, ok, want)
			}
		}
		if d.Len() != 0 {
			t.Fatalf("Len = %d after drain, want 0", d.Len())
		}
		d.Push(99)
		if v, ok := d.Pop(); !ok || v != 99 {
			t.Fatalf("Pop after the drain = %d,%v, want 99,true", v, ok)
		}
	}
}

// A stale thief's backwards top store can widen bottom-top beyond twice
// the current capacity; the grow must keep doubling until the window fits
// instead of wrapping the mask and overwriting live slots.
func TestRelaxedGrowWithStaleTopKeepsLiveElements(t *testing.T) {
	d := NewRelaxed[int]()
	// Walk top and bottom to 16 without growing (capacity stays 8), then
	// queue 7 live elements.
	for round := 0; round < 4; round++ {
		for i := 0; i < 4; i++ {
			d.Push(-1)
		}
		for i := 0; i < 4; i++ {
			if _, ok := d.Steal(); !ok {
				t.Fatalf("setup Steal failed")
			}
		}
	}
	for i := 0; i < 7; i++ {
		d.Push(100 + i)
	}
	// Stale thief regresses top to 0: bottom-top = 23 > 2*cap = 16, so
	// the next Push must grow past a single doubling.
	d.top.Store(0)
	d.Push(107)
	seen := map[int]bool{}
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		seen[v] = true
	}
	for i := 0; i < 8; i++ {
		if !seen[100+i] {
			t.Fatalf("live element %d lost across the over-wide grow", 100+i)
		}
	}
}

func BenchmarkRelaxedPushPop(b *testing.B) {
	d := NewRelaxed[int]()
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Pop()
	}
}
