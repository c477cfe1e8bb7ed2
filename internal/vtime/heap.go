// Package vtime is the virtual-time core every discrete-event driver in
// the repository runs on: Heap, the pending-event set the simulator
// (internal/sim) and the service simulator (internal/service) both pop in
// (time, push order), and Net, an in-memory network whose frames are
// events on that heap, so code written against comm.Endpoint runs under a
// clock the caller controls and faults a seed decides.
package vtime

// Heap is a pending-event set: an inlined 4-ary min-heap of 24-byte
// (at, seq, slot) keys over a slab of event bodies E. It replaces
// container/heap, whose interface-based API boxes every pushed event into
// an `any` — one heap allocation per event on a simulator's hottest path.
// Push stamps each event with the next sequence number, so (at, seq) is a
// total order and any correct min-heap pops events in exactly the same
// sequence: the heap's layout cannot change simulation results.
//
// Sifts move keys only. An event body is written once into a slab slot on
// Push and copied out once on Pop; freed slots are zeroed (dropping any
// reference the body held) and reused through a free list, so the slab
// grows to the peak number of pending events and no further. The 4-ary
// layout halves the tree depth of a binary heap and keeps a node's four
// children — 96 bytes of keys — within two cache lines. The zero value is
// an empty heap.
type Heap[E any] struct {
	keys []heapKey
	slab []E
	free []int32 // vacant slab slots
	seq  uint64  // next push's sequence number
}

type heapKey struct {
	at   int64
	seq  uint64
	slot int32
}

func (a *heapKey) less(b *heapKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Len returns the number of pending events.
func (h *Heap[E]) Len() int { return len(h.keys) }

// Push inserts e to fire at virtual time at, sifting its key up toward
// the root.
func (h *Heap[E]) Push(at int64, e E) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = e
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, e)
	}
	k := heapKey{at: at, seq: h.seq, slot: slot}
	h.seq++
	h.keys = append(h.keys, k)
	i := len(h.keys) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(&h.keys[parent]) {
			break
		}
		h.keys[i] = h.keys[parent]
		i = parent
	}
	h.keys[i] = k
}

// Pop removes and returns the earliest event and its time. The heap must
// not be empty.
func (h *Heap[E]) Pop() (at int64, e E) {
	at, slot := h.keys[0].at, h.keys[0].slot
	e = h.slab[slot]
	var zero E
	h.slab[slot] = zero
	h.free = append(h.free, slot)

	n := len(h.keys) - 1
	last := h.keys[n]
	h.keys = h.keys[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return at, e
}

// siftDown places k, starting from the vacated root.
func (h *Heap[E]) siftDown(k heapKey) {
	n := len(h.keys)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.keys[c].less(&h.keys[min]) {
				min = c
			}
		}
		if !h.keys[min].less(&k) {
			break
		}
		h.keys[i] = h.keys[min]
		i = min
	}
	h.keys[i] = k
}
