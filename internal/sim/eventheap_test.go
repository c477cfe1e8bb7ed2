package sim

import (
	"math/rand"
	"testing"
)

// Random interleavings of pushes and pops — so slab slots are freed and
// reused many times over — must pop in (at, push order) order, and a
// freed slot must not keep its event's batch alive.
func TestEventHeapOrderAndSlotReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		var h eventHeap
		pushed := 0         // doubles as the push-order stamp, carried in taskID
		var pending []event // reference: the multiset of events in the heap
		popMin := func() event {
			best := 0
			for i, e := range pending {
				if e.at < pending[best].at || (e.at == pending[best].at && e.taskID < pending[best].taskID) {
					best = i
				}
			}
			e := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			return e
		}
		peak := 0
		for op := 0; op < 400; op++ {
			if len(pending) == 0 || rng.Intn(5) < 3 {
				// Few distinct timestamps: ties are the common case.
				e := event{at: int64(rng.Intn(8)), kind: evArrive, taskID: pushed, batch: []int{pushed}}
				pushed++
				h.push(e)
				pending = append(pending, e)
			} else {
				got, want := h.pop(), popMin()
				if got.at != want.at || got.taskID != want.taskID {
					t.Fatalf("round %d op %d: popped (at %d, #%d), want (at %d, #%d)",
						round, op, got.at, got.taskID, want.at, want.taskID)
				}
				if len(got.batch) != 1 || got.batch[0] != got.taskID {
					t.Fatalf("round %d op %d: event #%d came back with batch %v", round, op, got.taskID, got.batch)
				}
			}
			if h.len() != len(pending) {
				t.Fatalf("round %d op %d: len = %d, want %d", round, op, h.len(), len(pending))
			}
			if len(pending) > peak {
				peak = len(pending)
			}
		}
		for len(pending) > 0 {
			if got, want := h.pop(), popMin(); got.taskID != want.taskID {
				t.Fatalf("round %d drain: popped #%d, want #%d", round, got.taskID, want.taskID)
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
