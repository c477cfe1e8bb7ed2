package core

import (
	"fmt"
	"sync/atomic"

	"distws/internal/task"
)

// finish tracks the X10 finish construct: a counter of outstanding
// activities in the scope, and the Ctx its body runs with, so a nested
// Finish is one allocation. It is 64 bytes, one size-class slot and one
// cache line: pending, which every worker completing an activity in the
// scope writes, shares its line with no other object.
// The first panic raised by an activity in the scope is kept and
// re-thrown at the finish point, mirroring X10's rooted exception model.
//
// The done channel is made only by a waiter about to block (wait): most
// nested scopes complete while their worker helps and never need one.
// Whichever of the waiter and the last done comes second closes it.
type finish struct {
	pending atomic.Int64
	state   atomic.Uint32 // finWaiting | finDone
	doneCh  chan struct{} // written by the waiter before it sets finWaiting
	ctx     Ctx

	err atomic.Pointer[any] // the first panic; later ones are dropped
}

const (
	finWaiting = 1 << iota
	finDone
)

func (f *finish) add(n int64) { f.pending.Add(n) }

func (f *finish) done() {
	if f.pending.Add(-1) == 0 {
		f.mark(finDone)
	}
}

// mark sets bit in state, once; the second of the two bits to be set
// closes doneCh.
func (f *finish) mark(bit uint32) {
	for {
		s := f.state.Load()
		if s&bit != 0 {
			return
		}
		if f.state.CompareAndSwap(s, s|bit) {
			if s != 0 {
				close(f.doneCh)
			}
			return
		}
	}
}

// wait returns a channel closed once the scope completes, making it on
// the first call. Only the scope's one waiter calls it: RunContext, a
// worker-less Finish, or the helping worker before it parks.
func (f *finish) wait() <-chan struct{} {
	if f.doneCh == nil {
		f.doneCh = make(chan struct{})
		f.mark(finWaiting)
	}
	return f.doneCh
}

func (f *finish) fail(v any) { f.err.CompareAndSwap(nil, &v) }

// firstErr returns the first collected panic value, or nil.
func (f *finish) firstErr() any {
	if p := f.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (f *finish) isDone() bool { return f.pending.Load() == 0 }

// Ctx is the execution context passed to every activity body. It carries
// the current place and the enclosing finish scope, and exposes the APGAS
// spawning operations.
type Ctx struct {
	rt      *Runtime
	placeID int
	worker  *worker // nil inside At bodies executed on a borrowed goroutine
	fin     *finish
}

// Place returns the id of the place this activity is executing at.
func (c *Ctx) Place() int { return c.placeID }

// Places returns the number of places in the runtime.
func (c *Ctx) Places() int { return len(c.rt.places) }

// checkPlace panics unless p is a valid place id.
func (c *Ctx) checkPlace(p int) {
	if p < 0 || p >= len(c.rt.places) {
		panic(fmt.Sprintf("core: invalid place %d (have %d places)", p, len(c.rt.places)))
	}
}

// Async spawns a locality-sensitive activity at place p — the X10
// `async (p) S`. It never migrates: it will execute at p.
func (c *Ctx) Async(p int, body func(*Ctx)) {
	c.AsyncLoc(p, task.SensitiveLocality, body)
}

// AsyncAny spawns a locality-flexible activity with home place p — the
// paper's `@AnyPlaceTask async (p) S`. It prefers to run at p but may be
// stolen by any other place when p is saturated.
func (c *Ctx) AsyncAny(p int, body func(*Ctx)) {
	c.AsyncLoc(p, task.FlexibleLocality, body)
}

// AsyncLoc spawns an activity with full locality attributes: class, data
// footprint, migration payload size and remote reference count for the
// communication model.
func (c *Ctx) AsyncLoc(p int, loc task.Locality, body func(*Ctx)) {
	c.checkPlace(p)
	if body == nil {
		panic("core: Async with nil body")
	}
	c.fin.add(1)
	c.rt.spawn(&activity{body: body, loc: loc, home: p, fin: c.fin}, c.placeID, c.worker)
}

// Finish runs body and blocks until every activity transitively spawned
// inside it has completed — the X10 `finish { S }`. While waiting, the
// calling worker helps by executing queued tasks (its worker loop, run
// until the scope completes), so nested finishes never deadlock the pool.
// A runtime shutdown releases the wait.
func (c *Ctx) Finish(body func(*Ctx)) {
	inner := &finish{}
	inner.add(1) // the body itself
	inner.ctx = Ctx{rt: c.rt, placeID: c.placeID, worker: c.worker, fin: inner}
	func() {
		defer inner.done()
		defer func() {
			if v := recover(); v != nil {
				inner.fail(v)
			}
		}()
		body(&inner.ctx)
	}()
	if c.worker != nil {
		c.worker.loop(inner) // help until the scope completes
	} else {
		select {
		case <-inner.wait():
		case <-c.rt.stopCh:
		}
	}
	if v := inner.firstErr(); v != nil {
		// Re-throw at the finish point; the enclosing activity's recovery
		// hands it to *its* finish, so failures climb to Run.
		panic(v)
	}
}

// At synchronously executes body at place p and returns when it is done —
// the X10 `at (p) S` place-shift. Data conceptually moves with the control
// transfer: the runtime accounts one request and one reply message of
// bytes payload size each way (pass 0 when unknown). The body runs on the
// calling goroutine with the context re-homed to p, which is deadlock-free
// and mirrors X10's blocked-worker semantics.
func (c *Ctx) At(p int, bytes int, body func(*Ctx)) {
	c.checkPlace(p)
	if p != c.placeID {
		c.rt.counters.Messages.Add(2)
		c.rt.counters.BytesTransferred.Add(2 * int64(bytes))
		c.rt.counters.RemoteDataAccess.Add(1)
	}
	body(&Ctx{rt: c.rt, placeID: p, worker: nil, fin: c.fin})
}
