package deque

import "sync/atomic"

// Relaxed is the FIFO work-stealing queue with multiplicity of Castañeda
// and Piña (arXiv:2008.04424): the owner appends at the bottom and every
// taker, the owner included, takes the oldest element at the top. It is
// fully fence-free: every synchronization step is a plain atomic load or
// store, with no CAS or other read-modify-write anywhere.
//
// The relaxation that buys this: a take is published by *storing* top+1
// rather than compare-and-swapping it, so two takers that read the same
// top may both return the same element, and a taker that was descheduled
// between its load and its store moves top backwards, re-exposing
// elements already taken. The guarantee is one-sided: an element may be
// returned more than once, but none is ever lost. Three facts carry it:
//
//   - bottom is monotone: only Push stores it, always to bottom+1. An
//     index therefore names one element for ever, and is written once per
//     buffer generation (by its Push, or by the grow that copies it).
//   - top never passes an index nobody read: top becomes i+1 only in a
//     taker that loaded top == i and then loaded slot i, so by induction
//     every index below any value top ever held has been read by a taker
//     that returns it. A late store of a small i+1 only re-exposes such
//     indices; a late store of a large one skips nothing unread.
//   - what a taker finds in slot i is element i, or (the ring wrapped, or
//     a grow copied across a regressed top) some other element that was
//     pushed, or nil. The owner overwrites or drops slot i only after
//     seeing top > i, so in the last two cases i was already read: the
//     other element is merely delivered once more than it would have
//     been, and nil is stepped over.
//
// Callers must therefore dedup at dispatch: the goroutine runtime claims
// each activity with a single atomic flag before running it. That
// machinery already exists for exactly-once execution across faults,
// which is what makes this queue's weaker contract free to adopt.
//
// Push is owner-only; Steal, Pop and Len are safe from any goroutine. The
// element window lives in a grow-only buffer of atomic pointer slots
// shared with concurrent readers, like ChaseLev's.
type Relaxed[T any] struct {
	top    atomic.Int64
	bottom atomic.Int64
	buf    atomic.Pointer[clBuf[T]]
}

// NewRelaxed returns an empty queue with a small initial capacity.
func NewRelaxed[T any]() *Relaxed[T] {
	d := &Relaxed[T]{}
	d.buf.Store(newCLBuf[T](8))
	return d
}

// Push appends v at the bottom (owner only).
func (d *Relaxed[T]) Push(v T) {
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if b-t >= int64(len(buf.items)) {
		// Grow: copy the window into a larger buffer. A taker holding an
		// index below t finds nil there and steps over it.
		//
		// A stale taker's backwards top store can widen b-t beyond twice
		// the old capacity, so doubling once is not always enough: keep
		// doubling until the whole window fits, or the copy loop would
		// wrap the power-of-two mask and overwrite live slots.
		newCap := int64(len(buf.items)) * 2
		for b-t >= newCap {
			newCap *= 2
		}
		nb := newCLBuf[T](newCap)
		for i := t; i < b; i++ {
			nb.store(i, buf.load(i))
		}
		d.buf.Store(nb)
		buf = nb
	}
	buf.store(b, &v)
	d.bottom.Store(b + 1)
}

// Steal removes the oldest element (any goroutine). It returns false only
// when the queue is empty; it never executes a read-modify-write, and it
// loops only over nil slots: indices a backwards top store re-exposed
// after a grow had dropped them as taken.
func (d *Relaxed[T]) Steal() (T, bool) {
	for {
		t := d.top.Load()
		if t >= d.bottom.Load() {
			var zero T
			return zero, false
		}
		vp := d.buf.Load().load(t)
		d.top.Store(t + 1)
		if vp != nil {
			return *vp, true
		}
	}
}

// Pop is Steal: the queue is FIFO at both ends, so the owner's take is the
// same head take as a thief's. It exists so Relaxed satisfies WorkQueue.
func (d *Relaxed[T]) Pop() (T, bool) { return d.Steal() }

// Len returns an instantaneous (racy) size estimate.
func (d *Relaxed[T]) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
