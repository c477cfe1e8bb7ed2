package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/metrics"
	"distws/internal/task"
)

// finish tracks the X10 finish construct: a counter of outstanding
// activities in the scope, with parent chaining for nested finishes.
// Panics raised by activities in the scope are collected and re-thrown at
// the finish point, mirroring X10's rooted exception model.
type finish struct {
	parent  *finish
	pending atomic.Int64
	doneCh  chan struct{}
	closed  atomic.Bool

	errMu sync.Mutex
	errs  []any
}

func newFinish(parent *finish) *finish {
	return &finish{parent: parent, doneCh: make(chan struct{})}
}

func (f *finish) add(n int64) { f.pending.Add(n) }

func (f *finish) done() {
	if f.pending.Add(-1) == 0 {
		if !f.closed.Swap(true) {
			close(f.doneCh)
		}
	}
}

func (f *finish) fail(v any) {
	f.errMu.Lock()
	f.errs = append(f.errs, v)
	f.errMu.Unlock()
}

// firstErr returns the first collected panic value, or nil.
func (f *finish) firstErr() any {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	if len(f.errs) == 0 {
		return nil
	}
	return f.errs[0]
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
// footprint (part of the adaptive policy's task signature), migration
// payload size and remote reference count for the communication model.
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
// calling worker helps by executing queued tasks, so nested finishes never
// deadlock the pool.
func (c *Ctx) Finish(body func(*Ctx)) {
	inner := newFinish(c.fin)
	inner.add(1) // the body itself
	child := &Ctx{rt: c.rt, placeID: c.placeID, worker: c.worker, fin: inner}
	func() {
		defer inner.done()
		defer func() {
			if v := recover(); v != nil {
				inner.fail(v)
			}
		}()
		body(child)
	}()
	c.waitHelping(inner)
	if v := inner.firstErr(); v != nil {
		// Re-throw at the finish point; the enclosing activity's recovery
		// hands it to *its* finish, so failures climb to Run.
		panic(v)
	}
}

// waitHelping blocks until fin completes, executing other queued work in
// the meantime (help-first semantics of the X10 scheduler). A runtime
// shutdown releases the wait: pending activities in the scope are
// abandoned (the documented Shutdown contract), which keeps a worker
// parked inside a nested finish from deadlocking ShutdownContext after
// its peers — the only ones who could have completed the scope — exited.
func (c *Ctx) waitHelping(fin *finish) {
	if c.worker == nil {
		select {
		case <-fin.doneCh:
		case <-c.rt.stopCh:
		}
		return
	}
	// The wait idles as worker.loop does: a first failed sweep opens the
	// idle stretch, the next is the parking protocol's re-check, and only
	// then does the worker block. A fruitless help-wait counts as idle.
	w := c.worker
	for !fin.isDone() && !c.rt.shutdown.Load() {
		if a, how := w.findWork(); a != nil {
			w.run(a, how)
			continue
		}
		if !w.idle() {
			w.beginIdle()
			continue
		}
		select {
		case <-w.place.wake:
		case <-fin.doneCh:
		case <-c.rt.stopCh:
		case <-time.After(c.rt.cfg.IdlePoll):
		}
	}
	w.endIdle()
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

// Metrics exposes a snapshot of the runtime counters to activity bodies
// (useful in examples and tests).
func (c *Ctx) Metrics() metrics.Snapshot { return c.rt.Metrics() }
