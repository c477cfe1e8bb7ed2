package sched

import (
	"sync/atomic"

	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/obs"
)

// Place is what a place (paper Fig. 2) is independently of how an engine
// queues tasks: the §VI-B status Algorithm 1's mapping reads, the liveness
// flags every thief, spawn and re-homing rule reads, and the lifelines
// registered on it. Each engine embeds one in its place. The status is
// stored only on change, so a busy place's line stays shared.
type Place struct {
	active   atomic.Bool  // §VI-B: set when work is assigned, cleared by a run of failed sweeps
	failed   atomic.Int32 // that run's length
	dead     atomic.Bool  // crashed, not yet joined, or drained
	draining atomic.Bool  // departing: takes no work, finishes what it runs
	waiters  []atomic.Bool
}

func (p *Place) Active() bool   { return p.active.Load() }
func (p *Place) Dead() bool     { return p.dead.Load() }
func (p *Place) Draining() bool { return p.draining.Load() }

// Down reports whether the place is dead or draining: the view thieves,
// spawns and the re-homing rule (NextAlive) take of it.
func (p *Place) Down() bool { return p.dead.Load() || p.draining.Load() }

// Assigned (re)activates the place and ends its failed-sweep run: work was
// assigned to it or started there.
func (p *Place) Assigned() {
	if !p.active.Load() {
		p.active.Store(true)
	}
	if p.failed.Load() != 0 {
		p.failed.Store(0)
	}
}

// Drained completes a drain once the place's last running task is done.
func (p *Place) Drained() { p.dead.Store(true) }

func (p *Place) reset() {
	p.active.Store(false)
	p.failed.Store(0)
}

// Host is the engine a Places runs on, holding tasks of type T.
type Host[T any] interface {
	// Take empties place's queues and returns their tasks; after a crash
	// the simulator adds the tasks the place was running.
	Take(place int, crashed bool) []T
	// Ship re-homes t, taken off a place that went down, at place to and
	// returns its payload in bytes.
	Ship(t T, to int) int
	// Queued is the length of place's shared deque; Lend moves its oldest
	// task to place to as a lifeline push and returns its payload.
	Queued(place int) int
	Lend(from, to int) (bytes int, ok bool)
	Trace(place, worker int, k obs.Kind, arg int32)
}

// Places is the place half of the scheduler over one engine's places: the
// tail of a failed sweep (§VI-B status, lifelines) and what a crash, a
// drain, a join and a flap's rejoin do, with all their accounting. The
// engine fills in the fields and calls Init; it keeps how it takes and
// moves tasks (Host), how it starts, stops and wakes workers, and its clock.
type Places[T any] struct {
	All     []*Place // by place id
	Policy  Kind
	Workers int // per place
	Ctrs    *metrics.Counters
	Host    Host[T]
}

// Init readies the places for a run with churn tl: a late joiner starts
// dead, and under LifelineWS every place can take waiters.
func (c *Places[T]) Init(tl []fault.Edge) {
	for _, ed := range tl {
		if ed.Kind == fault.EdgeJoin {
			c.All[ed.Place].dead.Store(true)
		}
	}
	for _, p := range c.All {
		if c.Policy == LifelineWS {
			p.waiters = make([]atomic.Bool, len(c.All))
		}
	}
}

// Down reports whether place q is dead or draining.
func (c *Places[T]) Down(q int) bool { return c.All[q].Down() }

// FailedSweep is the tail of worker w's fruitless Algorithm-1 sweep at
// place p: counted and traced, it extends p's run of failed sweeps, of
// which n in a row (n workers per place) mark p inactive (§VI-B), and
// under LifelineWS registers p on its lifelines.
func (c *Places[T]) FailedSweep(p, w int) {
	c.Ctrs.FailedSteals.Add(1)
	c.Host.Trace(p, w, obs.KindStealFail, 0)
	if int(c.All[p].failed.Add(1)) >= FailedStealQuiesceThreshold(c.Workers) {
		c.All[p].active.Store(false)
	}
	if c.Policy == LifelineWS {
		EachLifeline(p, len(c.All), c.Down, func(q int) {
			if !c.All[q].waiters[p].Swap(true) {
				c.Ctrs.Messages.Add(1) // the registration message
			}
			c.serve(q)
		})
	}
}

// Serve pushes surplus shared-deque work from place p to the places
// registered on its lifelines (LifelineWS only), one task each while p
// keeps one. A waiter that went down after registering is dropped.
func (c *Places[T]) Serve(p int) {
	if c.Policy == LifelineWS {
		c.serve(p)
	}
}

func (c *Places[T]) serve(p int) {
	for q := range c.All[p].waiters {
		if c.Host.Queued(p) <= 1 {
			return
		}
		if !c.All[p].waiters[q].Swap(false) || c.Down(q) {
			continue
		}
		if bytes, ok := c.Host.Lend(p, q); ok {
			c.Ctrs.Messages.Add(1)
			c.Ctrs.BytesTransferred.Add(int64(bytes))
			c.Ctrs.RemoteSteals.Add(1) // a lifeline push counts as a balanced transfer
		}
	}
}

// Rehome takes what is queued at down place p and ships the i-th task to
// NextAlive(p+1+i), one message with its payload each: re-executed if p
// crashed, offloaded (never started) if it is draining. It returns the
// count. An engine also calls it when a push raced p going down.
func (c *Places[T]) Rehome(p int, crashed bool) int {
	tasks := c.Host.Take(p, crashed)
	for i, t := range tasks {
		bytes := c.Host.Ship(t, NextAlive(p+1+i, len(c.All), c.Down))
		if crashed {
			c.Ctrs.TasksReExecuted.Add(1)
		} else {
			c.Ctrs.TasksOffloaded.Add(1)
		}
		c.Ctrs.Messages.Add(1)
		c.Ctrs.BytesTransferred.Add(int64(bytes))
	}
	return len(tasks)
}

// Crash fail-stops place p: dead, inactive, its work re-homed. It reports
// false if p was dead already; otherwise the engine stops p's workers.
func (c *Places[T]) Crash(p int) bool {
	if c.All[p].dead.Swap(true) {
		return false
	}
	c.All[p].reset()
	c.Ctrs.PlacesLost.Add(1)
	c.Host.Trace(p, 0, obs.KindCrash, int32(c.Rehome(p, true)))
	return true
}

// Drain starts place p's graceful departure: draining, inactive, its queue
// offloaded. It reports false if p was down already; otherwise the engine
// lets p's running tasks finish and then calls p's Drained.
func (c *Places[T]) Drain(p int) bool {
	if c.All[p].dead.Load() || c.All[p].draining.Swap(true) {
		return false
	}
	c.All[p].reset()
	c.Ctrs.MembershipDrains.Add(1)
	c.Host.Trace(p, 0, obs.KindDrain, int32(c.Rehome(p, false)))
	return true
}

// Revive brings dead place p into the cluster idle and empty: a late
// joiner's arrival, or (rejoin) the recovery of a flapped place, whose
// outage was a crash. It reports false if p was not dead; otherwise the
// engine starts or wakes p's workers, which find work by stealing.
func (c *Places[T]) Revive(p int, rejoin bool) bool {
	pl := c.All[p]
	if !pl.dead.Load() {
		return false
	}
	pl.draining.Store(false)
	pl.dead.Store(false)
	pl.reset()
	if rejoin {
		c.Ctrs.MembershipRejoins.Add(1)
		c.Host.Trace(p, 0, obs.KindHeal, int32(p))
	} else {
		c.Ctrs.MembershipJoins.Add(1)
		c.Host.Trace(p, 0, obs.KindJoin, 1)
	}
	return true
}

// Partition traces a partition's cut or heal edge; the cut itself is
// decided per message by fault.Injector.
func (c *Places[T]) Partition(ed fault.Edge) {
	if ed.Kind == fault.EdgeCut {
		c.Host.Trace(0, 0, obs.KindPartition, int32(ed.Place))
	} else {
		c.Host.Trace(0, 0, obs.KindHeal, -1)
	}
}
