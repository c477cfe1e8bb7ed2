package sched

import (
	"math/rand"

	"distws/internal/adapt"
	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/obs"
)

// Engine is the machine a Thief steals on: the goroutine runtime, where
// time is slept and tasks are closures in real queues, or the simulator,
// where time is a delay on the stolen task's start and tasks are ids in
// modelled queues. Everything else about a remote steal is Thief.Sweep.
type Engine interface {
	// Skip reports that asking victim is pointless as far as the thief can
	// see without a message: it is down, or visibly has nothing to give.
	Skip(victim int) bool
	// Now reads the thief's clock in nanoseconds and Wait spends ns on it:
	// fault windows are evaluated against that clock, and a steal's
	// latency is the difference of two readings.
	Now() int64
	Wait(ns int64)
	// Record logs one steal-path event against victim for the trace.
	Record(k obs.Kind, victim int, dur int64)
	// Steal completes a delivered request for up to chunk tasks: the
	// hand-over at the victim and the landing at the thief, with what
	// either costs spent on the clock. It returns how many tasks the thief
	// came away with and how many the victim still has to give.
	Steal(victim, chunk int) (got, left int)
}

// stealMaxAttempts bounds the requests a thief sends one victim in one
// sweep when the round trip keeps being lost: the first try plus retries.
const stealMaxAttempts = 3

// Thief is the thief's half of the distributed steal (Algorithm 1 lines
// 14–29) for one worker. The engine that owns the worker sets the exported
// fields once (the single-threaded simulator shares one Thief and sets
// Self and Rng per sweep); two goroutines must not share one.
type Thief struct {
	Policy    Kind
	Self      int               // the thief's place
	Places    int               // in the cluster
	Rng       *rand.Rand        // victim order, then backoff jitter
	Receiver  bool              // receiver-initiated protocol: a request is also a StealRequest
	TimeoutNS int64             // wait for a reply before calling it lost; the backoff's base
	Ctrl      *adapt.Controller // chunk size, victim bias and feedback (Adaptive only)
	Inj       *fault.Injector   // nil when fault-free
	Ctrs      *metrics.Counters

	victims []int // sweep-order scratch, reused so a sweep does not allocate
}

// Sweep visits the other places in randomized order (latency-biased under
// the adapt controller) and stops at the first that yields work, which
// e.Steal has by then landed; it reports whether one did. Each victim the
// thief sees no reason to skip is sent a request, a message pair whose
// fate the fault plan decides: delivered, possibly late or with a
// duplicated reply, or lost, which costs the thief a backoff wait and then
// a retry, up to stealMaxAttempts requests, unless the victim went down
// meanwhile. Counters are tallied locally and added once per sweep.
func (t *Thief) Sweep(e Engine) bool {
	chunk := RemoteChunk(t.Policy)
	if t.Ctrl != nil {
		chunk = t.Ctrl.Chunk(t.Self)
		t.victims = t.Ctrl.AppendVictimOrder(t.victims[:0], t.Self, t.Rng)
	} else {
		t.victims = AppendVictimOrder(t.victims[:0], t.Policy, t.Self, t.Places, t.Rng)
	}
	var requests, lost, retries, duplicated int64
	got := 0
	for _, v := range t.victims {
		if e.Skip(v) {
			continue
		}
		var start int64
		if t.Ctrl != nil {
			start = e.Now()
		}
		left := 0
		for sent := 1; ; sent++ {
			requests++
			e.Record(obs.KindProbe, v, 0)
			var late int64
			var gone, dup bool
			if t.Inj != nil {
				gone, late, dup = t.Inj.RoundTrip(t.Self, v, e.Now())
			}
			if !gone {
				if late > 0 {
					e.Wait(late)
				}
				if dup { // dedup absorbs the second reply, but it is real traffic
					duplicated++
				}
				got, left = e.Steal(v, chunk)
				break
			}
			lost++
			if sent == stealMaxAttempts {
				e.Record(obs.KindTimeout, v, 0) // the last loss costs nothing: the thief moves on
				break
			}
			wait := backoff(t.TimeoutNS, sent, t.Rng)
			e.Record(obs.KindTimeout, v, wait)
			e.Wait(wait)
			if e.Skip(v) {
				break
			}
			retries++
		}
		if t.Ctrl != nil {
			t.Ctrl.ObserveSteal(t.Self, v, e.Now()-start, got, left)
		}
		if got > 0 {
			break
		}
	}
	if requests == 0 {
		return false // nobody worth asking: the shared counters are not touched
	}
	c := t.Ctrs
	c.RemoteProbes.Add(requests)
	c.Messages.Add(2*requests + duplicated)
	if t.Receiver {
		c.StealRequests.Add(requests)
	}
	if lost+duplicated > 0 { // the fault plan touched this sweep
		c.DroppedMessages.Add(lost)
		c.StealTimeouts.Add(lost)
		c.Retries.Add(retries)
		c.DuplicatedMessages.Add(duplicated)
	}
	c.RemoteSteals.Add(int64(got))
	return got > 0
}

// backoff is the wait between the lost-th request lost to a victim and the
// retry: the steal timeout, doubled per earlier loss and jittered into
// [d/2, d] so that racing thieves desynchronize.
func backoff(timeoutNS int64, lost int, rng *rand.Rand) int64 {
	d := timeoutNS << (lost - 1)
	return d/2 + rng.Int63n(d/2+1)
}

// NextAlive returns the first place at or after from, wrapping around, that
// down does not report: the deterministic re-homing rule for work, or a
// lifeline, whose place has left. It returns -1 when every place is down,
// which neither a validated fault.Plan nor a granted drain brings about: a
// caller with work to place has no answer for it and indexes with the
// result; only one that can do without a place (EachLifeline) checks.
func NextAlive(from, places int, down func(place int) bool) int {
	from %= places
	if from < 0 {
		from += places
	}
	for i := 0; i < places; i++ {
		if p := (from + i) % places; !down(p) {
			return p
		}
	}
	return -1
}

// EachLifeline calls register with every place self should be registered
// at (LifelineWS): its hypercube neighbours, a down one replaced by the
// next live place after it so that the lifeline graph stays connected as
// places fail, and dropped when that is self or nobody.
func EachLifeline(self, places int, down func(place int) bool, register func(neighbour int)) {
	for _, q := range Lifelines(self, places) {
		if down(q) {
			if q = NextAlive(q+1, places, down); q < 0 || q == self {
				continue
			}
		}
		register(q)
	}
}
