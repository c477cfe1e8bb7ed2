// Package deque implements the two queue flavours the DistWS scheduler is
// built on (paper §V-A, Fig. 2):
//
//   - Private: one per worker. The owning worker pushes and pops at the
//     bottom (LIFO, maximizing cache reuse of the most recently spawned
//     task); co-located thieves steal the oldest task from the top.
//   - Shared: one per place. Strict FIFO so that any steal — local or
//     remote — receives the oldest task in the deque, which potentially
//     roots the largest remaining subtree of work. Supports chunked steals
//     (the paper uses chunks of 2 for distributed stealing).
//
// Both types are safe for concurrent use; each is a Ring — the one
// implementation of the queue algorithms, used bare by the simulator's
// single-goroutine engine — behind a lock. Synchronization is a per-deque
// mutex: the private deque's mutex is virtually uncontended (only its owner
// and the occasional co-located thief touch it), and the shared deque's
// mutex is exactly the lock the paper describes remote thieves contending
// on. Keeping that lock observable, rather than hiding it behind a
// lock-free structure, preserves the contention behaviour the paper's
// design is reacting to.
//
// The worker-side queue is pluggable beyond that paper-faithful default:
// Kind selects among Private (mutex), ChaseLev (lock-free, CAS steals) and
// Relaxed (fence-free FIFO with multiplicity: the Shared discipline, not
// the Private one) behind the common WorkQueue interface — see kind.go.
// Selecting Relaxed also flips the runtime to receiver-initiated stealing,
// removing the Shared structure from the hot path entirely.
// TestConformance is the concurrent contract all three are held to.
package deque

import "sync"

// Ring is the growable circular buffer under both queue flavours, and the
// queue itself where a single goroutine owns it (the simulator's event
// loop): every algorithm — push, the two pops, the chunked and the scored
// steal — is implemented here once, and Private and Shared are this type
// behind a mutex. Capacity is always a power of two (grow doubles from 8),
// so index wrap is a mask instead of a division. The zero value is an
// empty ring. Not safe for concurrent use.
type Ring[T any] struct {
	buf  []T
	head int // index of oldest element
	n    int // number of elements
}

func (r *Ring[T]) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&mask]
	}
	r.buf, r.head = buf, 0
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// PushBack appends v as the newest element.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopBack removes and returns the newest element (LIFO end). The second
// result is false when the ring is empty.
func (r *Ring[T]) PopBack() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	v := r.buf[i]
	r.buf[i] = zero // release reference for GC
	r.n--
	return v, true
}

// PopFront removes and returns the oldest element (FIFO end). The second
// result is false when the ring is empty.
func (r *Ring[T]) PopFront() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// StealChunkAppend removes up to k oldest elements and appends them to
// dst, returning the extended slice (dst unchanged when the ring is empty
// or k <= 0): the paper's chunked distributed steal (§V-B3, chunk size 2).
// Callers that steal in a loop pass a reused scratch buffer.
func (r *Ring[T]) StealChunkAppend(dst []T, k int) []T {
	if k > r.n {
		k = r.n
	}
	for i := 0; i < k; i++ {
		v, _ := r.PopFront()
		dst = append(dst, v)
	}
	return dst
}

// StealBestAppend removes up to k elements chosen by score — highest
// first, ties broken oldest-first — and appends them to dst, returning
// the extended slice. It is the data-aware variant of StealChunkAppend:
// a thief that knows which queued tasks' inputs are already resident
// locally passes a score favouring them (e.g. negated fetch bytes).
// Elements not taken keep their relative order, so with a constant
// score the result is exactly StealChunkAppend.
func (r *Ring[T]) StealBestAppend(dst []T, k int, score func(T) int64) []T {
	if k > r.n {
		k = r.n
	}
	for i := 0; i < k; i++ {
		mask := len(r.buf) - 1
		bestAt := 0
		bestScore := score(r.buf[r.head])
		for j := 1; j < r.n; j++ {
			if s := score(r.buf[(r.head+j)&mask]); s > bestScore {
				bestAt, bestScore = j, s
			}
		}
		v := r.buf[(r.head+bestAt)&mask]
		// Close the gap: shift the elements older than the chosen one back
		// by a slot, then drop the now-duplicated front. Order among the
		// remaining elements is preserved.
		for j := bestAt; j > 0; j-- {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j-1)&mask]
		}
		r.PopFront()
		dst = append(dst, v)
	}
	return dst
}

// Private is a per-worker double-ended queue. The owner uses Push/Pop
// (LIFO); thieves use Steal (FIFO end). The zero value is ready to use.
type Private[T any] struct {
	mu sync.Mutex
	r  Ring[T]
}

// Push appends v at the bottom of the deque (owner operation).
func (d *Private[T]) Push(v T) {
	d.mu.Lock()
	d.r.PushBack(v)
	d.mu.Unlock()
}

// Pop removes and returns the most recently pushed element (owner
// operation, LIFO). The second result is false when the deque is empty.
func (d *Private[T]) Pop() (T, bool) {
	d.mu.Lock()
	v, ok := d.r.PopBack()
	d.mu.Unlock()
	return v, ok
}

// Steal removes and returns the oldest element (thief operation, FIFO
// end). The second result is false when the deque is empty.
func (d *Private[T]) Steal() (T, bool) {
	d.mu.Lock()
	v, ok := d.r.PopFront()
	d.mu.Unlock()
	return v, ok
}

// Len returns the current number of queued elements.
func (d *Private[T]) Len() int {
	d.mu.Lock()
	n := d.r.n
	d.mu.Unlock()
	return n
}

// Shared is a per-place FIFO deque holding locality-flexible tasks. Every
// consumer — the place's own workers and remote thieves — receives the
// oldest task. The zero value is ready to use.
type Shared[T any] struct {
	mu sync.Mutex
	r  Ring[T]
}

// Push appends v at the tail.
func (d *Shared[T]) Push(v T) {
	d.mu.Lock()
	d.r.PushBack(v)
	d.mu.Unlock()
}

// Poll removes and returns the oldest element. The second result is false
// when the deque is empty.
func (d *Shared[T]) Poll() (T, bool) {
	d.mu.Lock()
	v, ok := d.r.PopFront()
	d.mu.Unlock()
	return v, ok
}

// StealChunk removes and returns up to k oldest elements in one critical
// section, implementing the paper's chunked distributed steal (§V-B3,
// chunk size 2). It returns nil when the deque is empty or k <= 0.
func (d *Shared[T]) StealChunk(k int) []T {
	out := d.StealChunkAppend(nil, k)
	if len(out) == 0 {
		return nil
	}
	return out
}

// StealChunkAppend is Ring.StealChunkAppend in one critical section: the
// allocation-free form of StealChunk.
func (d *Shared[T]) StealChunkAppend(dst []T, k int) []T {
	if k <= 0 {
		return dst
	}
	d.mu.Lock()
	dst = d.r.StealChunkAppend(dst, k)
	d.mu.Unlock()
	return dst
}

// Len returns the current number of queued elements.
func (d *Shared[T]) Len() int {
	d.mu.Lock()
	n := d.r.n
	d.mu.Unlock()
	return n
}
