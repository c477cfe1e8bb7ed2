package vtime

import (
	"math/rand"
	"testing"
)

// Random interleavings of pushes and pops — so slab slots are freed and
// reused many times over — must pop in (at, push order) order, and a
// freed slot must not keep its event's batch alive. Bursts of pushes at
// the last pop's time, some longer than the same-time lane, go through
// the lane; pushes earlier than the last pop must still come out first.
func TestEventHeapOrderAndSlotReuse(t *testing.T) {
	type event struct {
		at    int64
		id    int // push-order stamp
		batch []int
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		var h Heap[event]
		pushed := 0
		var pending []event // reference: the multiset of events in the heap
		popMin := func() event {
			best := 0
			for i, e := range pending {
				if e.at < pending[best].at || (e.at == pending[best].at && e.id < pending[best].id) {
					best = i
				}
			}
			e := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			return e
		}
		peak := 0
		push := func(at int64) {
			e := event{at: at, id: pushed, batch: []int{pushed}}
			pushed++
			h.Push(e.at, e)
			pending = append(pending, e)
			peak = max(peak, len(pending))
		}
		var last int64 // the last pop's time
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case len(pending) == 0 || r < 5:
				// Few distinct timestamps: ties are the common case.
				push(int64(rng.Intn(8)))
			case r == 5:
				for n := 1 + rng.Intn(2*laneCap); n > 0; n-- {
					push(last)
				}
			case r == 6:
				push(last - 1 - int64(rng.Intn(3)))
			default:
				at, got := h.Pop()
				last = at
				want := popMin()
				if at != want.at || got.id != want.id {
					t.Fatalf("round %d op %d: popped (at %d, #%d), want (at %d, #%d)",
						round, op, at, got.id, want.at, want.id)
				}
				if len(got.batch) != 1 || got.batch[0] != got.id {
					t.Fatalf("round %d op %d: event #%d came back with batch %v", round, op, got.id, got.batch)
				}
			}
			if h.Len() != len(pending) {
				t.Fatalf("round %d op %d: len = %d, want %d", round, op, h.Len(), len(pending))
			}
		}
		for len(pending) > 0 {
			if _, got := h.Pop(); got.id != popMin().id {
				t.Fatalf("round %d drain: popped #%d out of order", round, got.id)
			}
		}
		if len(h.slab) != peak || len(h.free) != peak {
			t.Fatalf("round %d: slab %d, free %d after drain; want both at the peak of %d pending events",
				round, len(h.slab), len(h.free), peak)
		}
		for slot, e := range h.slab {
			if e.batch != nil {
				t.Fatalf("round %d: freed slot %d still holds batch %v", round, slot, e.batch)
			}
		}
	}
}
