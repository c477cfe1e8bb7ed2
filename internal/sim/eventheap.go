package sim

// eventHeap is the engine's pending-event set: an inlined 4-ary min-heap
// of 24-byte (at, seq, slot) keys over a slab of event bodies. It replaces
// container/heap, whose interface-based API boxes every pushed event into
// an `any` — one heap allocation per event on the simulator's hottest
// path. push stamps each event with the next sequence number, so (at, seq)
// is a total order and any correct min-heap pops events in exactly the
// same sequence: the heap's layout cannot change simulation results.
//
// Sifts move keys only. An event body (~100 bytes) is written once into a
// slab slot on push and copied out once on pop; freed slots are zeroed
// (dropping the evArrive batch reference) and reused through a free list,
// so the slab grows to the peak number of pending events and no further.
// The 4-ary layout halves the tree depth of a binary heap and keeps a
// node's four children — 96 bytes of keys — within two cache lines.
type eventHeap struct {
	keys []eventKey
	slab []event
	free []int32 // vacant slab slots
	seq  uint64  // next push's sequence number
}

type eventKey struct {
	at   int64
	seq  uint64
	slot int32
}

func (a *eventKey) less(b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return len(h.keys) }

// push inserts e, sifting its key up toward the root.
func (h *eventHeap) push(e event) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = e
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, e)
	}
	k := eventKey{at: e.at, seq: h.seq, slot: slot}
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

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	slot := h.keys[0].slot
	e := h.slab[slot]
	h.slab[slot] = event{}
	h.free = append(h.free, slot)

	n := len(h.keys) - 1
	last := h.keys[n]
	h.keys = h.keys[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return e
}

// siftDown places k, starting from the vacated root.
func (h *eventHeap) siftDown(k eventKey) {
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
