// Package vtime is the virtual-time core every discrete-event driver in
// the repository runs on: Heap, the pending-event set the simulator
// (internal/sim) and the service simulator (internal/service) both pop in
// (time, push order), and Net, an in-memory network whose frames are
// events on that heap, so code written against comm.Endpoint runs under a
// clock the caller controls and faults a seed decides.
package vtime

import "math/bits"

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
	// last is the time of the last pop. lane holds, in push order, up to
	// laneCap keys pushed at exactly that time since (a ring from
	// laneHead, laneLen long): they are in (at, seq) order already, so
	// they skip the sifts, and Pop takes the lane's head when it is less
	// than the heap's root.
	last     int64
	lane     [laneCap]heapKey
	laneHead int
	laneLen  int
}

// laneCap bounds the same-time lane; a push that finds it full goes to
// the heap, which orders it just as well.
const laneCap = 32

type heapKey struct {
	at   int64
	seq  uint64
	slot int32
}

func (a *heapKey) less(b *heapKey) bool { return a.before(b) != 0 }

// before is less as 1 or 0: the borrow out of the 128-bit subtraction
// (at, seq) − (b.at, b.seq), at's sign bit flipped to order it unsigned.
// It has no branch to mispredict, and siftDown selects with it by mask.
func (a *heapKey) before(b *heapKey) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^1<<63, uint64(b.at)^1<<63, borrow)
	return int(borrow)
}

// Len returns the number of pending events.
func (h *Heap[E]) Len() int { return len(h.keys) + h.laneLen }

// Push inserts e to fire at virtual time at: its key joins the lane when
// at is the last pop's time and the lane has room, else it sifts up
// toward the root.
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
	if at == h.last && h.laneLen < laneCap && (h.laneLen == 0 || h.lane[h.laneHead].at == at) {
		h.lane[(h.laneHead+h.laneLen)%laneCap] = k
		h.laneLen++
		return
	}
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
	var slot int32
	if h.laneLen > 0 && (len(h.keys) == 0 || h.lane[h.laneHead].less(&h.keys[0])) {
		at, slot = h.lane[h.laneHead].at, h.lane[h.laneHead].slot
		h.laneHead = (h.laneHead + 1) % laneCap
		h.laneLen--
	} else {
		at, slot = h.keys[0].at, h.keys[0].slot
		n := len(h.keys) - 1
		last := h.keys[n]
		h.keys = h.keys[:n]
		if n > 0 {
			h.siftDown(last)
		}
	}
	h.last = at
	e = h.slab[slot]
	var zero E
	h.slab[slot] = zero
	h.free = append(h.free, slot)
	return at, e
}

// siftDown places k, starting from the vacated root. The smallest of a
// node's children is selected by mask (before), not by branch: which
// child wins is data-dependent, so a branch there mispredicts often.
func (h *Heap[E]) siftDown(k heapKey) {
	keys := h.keys
	n := len(keys)
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
			min ^= (min ^ c) & -keys[c].before(&keys[min])
		}
		if !keys[min].less(&k) {
			break
		}
		keys[i] = keys[min]
		i = min
	}
	keys[i] = k
}
