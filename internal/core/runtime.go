// Package core implements the DistWS runtime: an APGAS (asynchronous
// partitioned global address space) execution model in the style of X10,
// with places, asyncs, finish, and the paper's selective locality-aware
// distributed work-stealing scheduler.
//
// A Runtime hosts P places, each with W worker goroutines. Every worker
// owns a private LIFO deque for locality-sensitive tasks; every place owns
// one shared FIFO deque for locality-flexible tasks (paper Fig. 2). The
// worker loop follows Algorithm 1: poll the private deque, steal from
// co-located workers, poll the local shared deque, and — policy
// permitting — steal chunks from remote places' shared deques.
//
// The package is wrapped by the public distws facade at the module root;
// see that package for usage examples.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/adapt"
	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/task"
	"distws/internal/topology"
)

// ErrShutdown is returned by Run and RunContext once the runtime has been
// shut down. Match with errors.Is.
var ErrShutdown = errors.New("core: runtime is shut down")

// Config parameterizes a Runtime.
type Config struct {
	// Cluster describes places and workers per place. Defaults to
	// topology.Laptop() when zero.
	Cluster topology.Cluster
	// Policy selects the scheduling algorithm. Default DistWS.
	Policy sched.Kind
	// Seed makes victim selection deterministic for tests. Zero picks 1.
	Seed int64
	// IdlePoll is the longest an idle worker blocks between work-finding
	// sweeps. A push wakes the idle workers it concerns, so this is the
	// bound on a missed wake, not the way work is found. Defaults to 200µs.
	IdlePoll time.Duration
	// Deque selects the worker-queue implementation (deque.Kinds):
	// deque.KindMutex (zero value) is the paper-faithful mutex-guarded
	// deque; deque.KindChaseLev swaps in lock-free Chase–Lev private
	// deques; deque.KindRelaxed gives every worker the paper's Fig. 2
	// pair, a Chase–Lev private deque (LIFO, exactly-once) and a
	// fence-free FIFO multiplicity queue of flexible tasks, AND switches
	// remote stealing to the receiver-initiated protocol — thieves post
	// steal requests into per-worker mailboxes and busy owners donate
	// the older half of their flexible queue at task-spawn boundaries, so
	// no remote thief ever touches a shared structure on the victim's hot
	// path.
	Deque deque.Kind
	// Fault injects failures: place crashes after a task count, message
	// loss and latency spikes on the remote-steal path. Nil runs
	// fault-free. A crashed place fail-stops (its workers exit after the
	// activity they are running); queued work is re-homed to survivors.
	Fault *fault.Plan
	// StealTimeout is how long a thief waits before declaring a remote
	// steal round trip lost; it is also the base of the exponential
	// backoff between retries. Defaults to 200µs.
	StealTimeout time.Duration
	// Recorder, when non-nil, receives per-worker scheduling events
	// (activity start/end, spawns, steal attempts and outcomes, chunk
	// arrivals, crashes) stamped in wall-clock nanoseconds since New.
	// Nil (the default) records nothing and costs one branch per event.
	Recorder *obs.Recorder
	// Adapt, when non-nil and Policy is sched.Adaptive, is the online
	// classification controller driving the run; callers pass one to
	// inspect its learned state after the run. Nil under sched.Adaptive
	// creates a fresh controller with default thresholds. Ignored under
	// other policies.
	Adapt *adapt.Controller
}

func (c Config) withDefaults() Config {
	if c.Cluster.Places == 0 && c.Cluster.WorkersPerPlace == 0 {
		c.Cluster = topology.Laptop()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.IdlePoll <= 0 {
		c.IdlePoll = 200 * time.Microsecond
	}
	if c.StealTimeout <= 0 {
		c.StealTimeout = 200 * time.Microsecond
	}
	return c
}

// Runtime is a running APGAS instance. Create with New, release with
// Shutdown.
type Runtime struct {
	cfg    Config
	places []*place
	// counters holds what moves per steal, per message or per fault.
	// What moves per task (spawned, executed) is counted on the worker
	// that did it (workerStats) and summed by Metrics; the two fields
	// here take only the spawns made from outside the pool.
	counters metrics.Counters
	rec      *obs.Recorder // scheduling-event recorder (nil = tracing off)
	// ctrl is the adapt feedback controller (non-nil only under
	// sched.Adaptive): it supplies each activity's online classification
	// in place of the annotation, the per-place steal chunk size, and
	// the latency-biased victim order.
	ctrl *adapt.Controller
	// receiver is true under deque.KindRelaxed: remote stealing runs the
	// receiver-initiated protocol, and every take that is not from a
	// private deque is claim-checked because the relaxed flexible queues
	// may hand a task out twice.
	receiver bool

	// inj evaluates the injected fault plan (nil-safe when fault-free).
	inj *fault.Injector

	// idlers counts the workers inside an idle stretch, runtime-wide: the
	// one word a push loads to learn that nobody needs waking (see
	// worker.beginIdle for the protocol).
	idlers atomic.Int32

	shutdown atomic.Bool
	// stopCh is closed by the first Shutdown so blocked RunContext calls
	// unblock with ErrShutdown instead of waiting on a finish that the
	// exiting workers will never complete.
	stopCh   chan struct{}
	workerWG sync.WaitGroup

	// timers fire the fault plan's wall-clock churn schedule (joins,
	// drains, flap down/up cycles); Shutdown stops any still pending.
	timers []*time.Timer
	// churnMu serializes worker restarts (join/heal) against Shutdown so
	// workerWG.Add never races the final Wait.
	churnMu sync.Mutex

	started time.Time
}

// nowNS is the runtime's wall clock for time-windowed fault decisions,
// measured from New — the same origin the sim's virtual clock uses from
// its t=0, so one Plan drives both.
func (rt *Runtime) nowNS() int64 { return time.Since(rt.started).Nanoseconds() }

// stamp is nowNS for workerStats.idleSince, where 0 means "not idle".
func (rt *Runtime) stamp() int64 { return max(1, rt.nowNS()) }

// sleepUntil blocks until the runtime clock reaches atNS or the runtime
// shuts down; it reports whether the caller should proceed.
func (rt *Runtime) sleepUntil(atNS int64) bool {
	if d := time.Duration(atNS) - time.Since(rt.started); d > 0 {
		select {
		case <-rt.stopCh:
			return false
		case <-time.After(d):
		}
	}
	return !rt.shutdown.Load()
}

// New starts a runtime: all worker goroutines are live on return.
func New(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if !sched.Valid(cfg.Policy) {
		return nil, fmt.Errorf("core: invalid policy %v", cfg.Policy)
	}
	if !cfg.Deque.Valid() {
		return nil, fmt.Errorf("core: invalid deque kind %v", cfg.Deque)
	}
	if err := cfg.Fault.Validate(cfg.Cluster.Places); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rt := &Runtime{
		cfg:      cfg,
		receiver: cfg.Deque == deque.KindRelaxed,
		rec:      cfg.Recorder,
		inj:      fault.NewInjector(cfg.Fault),
		stopCh:   make(chan struct{}),
		started:  time.Now(),
	}
	if rt.rec != nil {
		rt.rec.Configure(cfg.Cluster.Places, cfg.Cluster.WorkersPerPlace,
			obs.WallClockSince(rt.started), obs.WallNS)
	}
	if cfg.Policy == sched.Adaptive {
		rt.ctrl = cfg.Adapt
		if rt.ctrl == nil {
			rt.ctrl = adapt.New(adapt.Config{Places: cfg.Cluster.Places})
		}
	}
	rt.places = make([]*place, cfg.Cluster.Places)
	for p := range rt.places {
		rt.places[p] = newPlace(rt, p)
	}
	// Late joiners from the fault plan start absent: no workers, excluded
	// from homing and victim sweeps until their join instant.
	joining := make(map[int]bool)
	if cfg.Fault != nil {
		for _, j := range cfg.Fault.Joins {
			joining[j.Place] = true
			rt.places[j.Place].dead.Store(true)
		}
	}
	for _, p := range rt.places {
		if !joining[p.id] {
			p.startWorkers()
		}
	}
	if cfg.Fault != nil {
		for _, j := range cfg.Fault.Joins {
			p := rt.places[j.Place]
			rt.timers = append(rt.timers, time.AfterFunc(time.Duration(j.AtNS), func() {
				rt.revive(p, false)
			}))
		}
		for _, d := range cfg.Fault.Drains {
			p := d.Place
			rt.timers = append(rt.timers, time.AfterFunc(time.Duration(d.AtNS), func() {
				_ = rt.DrainPlace(p)
			}))
		}
		for _, fl := range cfg.Fault.Flaps {
			// One goroutine walks the whole down/up schedule so a late
			// down edge can never land after its own heal (independent
			// timers offer no ordering guarantee).
			p := rt.places[fl.Place]
			fl := fl
			go func() {
				period := fl.DownNS + fl.UpNS
				for i := 0; i < fl.Cycles; i++ {
					at := fl.AtNS + int64(i)*period
					if !rt.sleepUntil(at) {
						return
					}
					rt.crashPlace(p)
					if !rt.sleepUntil(at + fl.DownNS) {
						return
					}
					rt.revive(p, true)
				}
			}()
		}
	}
	return rt, nil
}

// Places returns the number of places.
func (rt *Runtime) Places() int { return len(rt.places) }

// WorkersPerPlace returns the per-place worker count.
func (rt *Runtime) WorkersPerPlace() int { return rt.cfg.Cluster.WorkersPerPlace }

// Policy returns the active scheduling policy.
func (rt *Runtime) Policy() sched.Kind { return rt.cfg.Policy }

// Metrics returns a snapshot of the run's counters: the shared ones plus
// the per-task counts summed over the workers. Each summand only grows,
// so neither total ever reads lower than an earlier call saw it.
func (rt *Runtime) Metrics() metrics.Snapshot {
	s := rt.counters.Snapshot()
	for _, p := range rt.places {
		for _, w := range p.workers {
			s.TasksSpawned += w.stats.spawned.Load()
			s.TasksExecuted += w.stats.executed.Load()
		}
	}
	return s
}

// record logs one scheduling event when tracing is on. The nil check is
// the disabled fast path: one predictable branch, no call, no allocation.
func (rt *Runtime) record(place, worker int, k obs.Kind, taskID, arg int32, dur int64) {
	if rt.rec != nil {
		rt.rec.Record(place, worker, k, taskID, arg, dur)
	}
}

// Utilization returns per-place busy fractions since New, in percent:
// the share of its workers' time a place did not spend idle, where a
// worker is idle between a failed work-finding sweep and the next task it
// finds (parked or sweeping, in its loop or helping inside Finish) and
// while it is not started. A body that blocks is busy. Measured from the
// idle side the figure cannot exceed 100, and a task costs it nothing.
func (rt *Runtime) Utilization() []float64 {
	out := make([]float64, len(rt.places))
	for i, p := range rt.places {
		// idleNS before idleSince, the reverse of closeIdleStamp, and
		// the clock last, so every stretch counted has ended by now.
		var idle, open int64
		for _, w := range p.workers {
			idle += w.stats.idleNS.Load()
			if since := w.stats.idleSince.Load(); since != 0 {
				idle -= since
				open++
			}
		}
		now := rt.stamp()
		idle += open * now
		out[i] = 100 * (1 - float64(idle)/(float64(now)*float64(len(p.workers))))
	}
	return out
}

// Shutdown stops all workers and waits for them to exit. Pending tasks are
// abandoned; call only after Run has returned. Idempotent.
func (rt *Runtime) Shutdown() { _ = rt.ShutdownContext(context.Background()) }

// ShutdownContext stops all workers and waits for them to exit, bounded by
// ctx. The stop signal is delivered regardless of the outcome; a non-nil
// return (ctx.Err()) only means the wait was abandoned while workers were
// still winding down — they keep exiting in the background and a later
// call waits for the remainder. Idempotent.
func (rt *Runtime) ShutdownContext(ctx context.Context) error {
	rt.churnMu.Lock()
	first := !rt.shutdown.Swap(true)
	rt.churnMu.Unlock()
	if first {
		close(rt.stopCh)
		for _, t := range rt.timers {
			t.Stop()
		}
		for _, p := range rt.places {
			p.wakeAll()
		}
	}
	done := make(chan struct{})
	go func() {
		rt.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run executes body as the root activity at place 0 and blocks until body
// and everything it transitively spawned have finished (an implicit
// top-level X10 finish).
func (rt *Runtime) Run(body func(*Ctx)) error {
	return rt.RunContext(context.Background(), body)
}

// RunContext is Run bounded by a context: it executes body as the root
// activity at place 0 and blocks until the implicit top-level finish
// completes or ctx is done, whichever comes first. On cancellation it
// returns ctx.Err() immediately, but the activities already spawned are
// not interrupted — they drain in the background on the worker pool, and
// Shutdown still waits for the workers themselves. A runtime that has been
// shut down returns ErrShutdown — including a runtime shut down while the
// run is in flight: the workers exit at their next scheduling point and
// would never complete the finish, so the blocked run unblocks with
// ErrShutdown instead of hanging (distws-run -timeout relies on this).
func (rt *Runtime) RunContext(ctx context.Context, body func(*Ctx)) error {
	if rt.shutdown.Load() {
		return ErrShutdown
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	fin := newFinish(nil)
	fin.add(1)
	rt.spawn(&activity{
		body: body,
		loc:  task.SensitiveLocality,
		home: 0,
		fin:  fin,
	}, -1, nil)
	select {
	case <-fin.doneCh:
	case <-rt.stopCh:
		return ErrShutdown
	case <-ctx.Done():
		return ctx.Err()
	}
	if v := fin.firstErr(); v != nil {
		return fmt.Errorf("core: activity panicked: %v", v)
	}
	return nil
}

// spawn enqueues a (per Algorithm 1 lines 1–8). from is the spawning place
// (-1 when spawned from outside the runtime) and spawner the spawning
// worker (nil outside the pool); a cross-place spawn is accounted as one
// message carrying the task payload. A spawn addressed to a crashed place
// is re-homed to the next surviving place.
func (rt *Runtime) spawn(a *activity, from int, spawner *worker) {
	if spawner != nil {
		spawner.stats.spawned.Add(1)
	} else {
		rt.counters.TasksSpawned.Add(1)
	}
	if rt.down(a.home) {
		a.home = sched.NextAlive(a.home, len(rt.places), rt.down)
	}
	home := rt.places[a.home]
	rt.record(a.home, 0, obs.KindSpawn, -1, int32(from), 0)
	if from >= 0 && from != a.home {
		rt.counters.Messages.Add(1)
		rt.counters.BytesTransferred.Add(int64(a.loc.MigrationBytes))
	}
	home.enqueue(a, home.mapTarget(a), spawner)
}

// down reports that place p is dead or draining: the view the re-homing
// rule (sched.NextAlive) and thieves take of it.
func (rt *Runtime) down(p int) bool {
	return rt.places[p].dead.Load() || rt.places[p].draining.Load()
}

// mapClass resolves the class Algorithm 1 maps an activity by: the
// programmer's annotation, or — under the adaptive policy — the
// controller's learned classification of the activity's kind, interned
// on first sight from observable locality attributes (footprint, remote
// references, migration payload; cost is unknown up front in a real
// runtime and enters the signature as zero).
func (rt *Runtime) mapClass(a *activity) task.Class {
	if rt.ctrl == nil {
		return a.loc.Class
	}
	if !a.interned {
		a.kind = rt.ctrl.Intern(adapt.Signature(0, len(a.loc.Blocks), a.loc.RemoteRefs, a.loc.MigrationBytes))
		a.interned = true
	}
	return rt.ctrl.Classify(a.kind)
}

// crashPlace fail-stops p: its workers exit after the activity they are
// currently running, and every activity queued in its shared or private
// deques is re-homed to surviving places and re-executed there. The
// ordering (mark dead, then drain) together with enqueue's dead re-check
// guarantees no activity is stranded by a racing spawn.
func (rt *Runtime) crashPlace(p *place) {
	if p.dead.Swap(true) {
		return
	}
	rt.counters.PlacesLost.Add(1)
	rt.record(p.id, 0, obs.KindCrash, -1, 0, 0)
	p.wakeAll() // idle workers notice the death and exit
	rt.rescue(p)
}

// rescue drains everything queued at the dead place p and re-enqueues it
// at survivors. Idempotent: deque operations hand out each activity at
// most once, so concurrent rescuers cannot duplicate work.
func (rt *Runtime) rescue(p *place) { rt.rehomeQueued(p, true) }

// offload is rescue's graceful twin: the moved activities never started,
// so they count as offloaded rather than re-executed.
func (rt *Runtime) offload(p *place) { rt.rehomeQueued(p, false) }

func (rt *Runtime) rehomeQueued(p *place, reexec bool) {
	var orphans []*activity
	drain := func(take func() (*activity, bool)) {
		for a, ok := take(); ok; a, ok = take() {
			orphans = append(orphans, a)
		}
	}
	drain(p.shared.Poll)
	for _, w := range p.workers {
		drain(w.priv.Steal)
		drain(w.inbox.Steal)
		if w.flex != nil {
			drain(w.flex.Steal)
		}
	}
	if len(orphans) == 0 {
		return
	}
	if rt.receiver {
		// Relaxed flexible queues may hand an activity out twice under
		// concurrent drains; dedup the orphan list so nothing is
		// double-homed. (The claim check would still keep execution
		// exactly-once, but the re-homing counters and queue accounting
		// should see each task once.)
		seen := make(map[*activity]bool, len(orphans))
		uniq := orphans[:0]
		for _, a := range orphans {
			if !seen[a] {
				seen[a] = true
				uniq = append(uniq, a)
			}
		}
		orphans = uniq
	}
	for i, a := range orphans {
		if reexec {
			rt.counters.TasksReExecuted.Add(1)
		} else {
			rt.counters.TasksOffloaded.Add(1)
		}
		// Recovery ships the task once to its new home.
		rt.counters.Messages.Add(1)
		rt.counters.BytesTransferred.Add(int64(a.loc.MigrationBytes))
		a.home = sched.NextAlive(p.id+1+i, len(rt.places), rt.down)
		home := rt.places[a.home]
		home.enqueue(a, home.mapTarget(a), nil)
	}
}

// revive starts fresh workers at a down place, which then acquire work
// by stealing; spawns may be homed there from now on. It serves a late
// joiner's arrival (rejoin false) and the up edge of a flap (rejoin true):
// that outage was a crash — queued work was re-homed and re-executed — but
// the place rejoins instead of staying evicted.
func (rt *Runtime) revive(p *place, rejoin bool) {
	rt.churnMu.Lock()
	defer rt.churnMu.Unlock()
	if rt.shutdown.Load() || !p.dead.Load() {
		return
	}
	p.wg.Wait() // let any previous worker generation exit fully
	p.draining.Store(false)
	p.dead.Store(false)
	if rejoin {
		rt.counters.MembershipRejoins.Add(1)
		rt.record(p.id, 0, obs.KindHeal, -1, int32(p.id), 0)
	} else {
		rt.counters.MembershipJoins.Add(1)
		rt.record(p.id, 0, obs.KindJoin, -1, 1, 0)
	}
	p.startWorkers()
}

// DrainPlace gracefully removes place p from the runtime: the place stops
// accepting new work (spawns re-home, thieves exclude it), its
// queued-but-unstarted activities are offloaded to survivors (counted as
// TasksOffloaded — nothing is re-executed), and the call blocks until the
// activities already running there have finished, at which point the
// place's workers exit. Draining the last available place is refused.
func (rt *Runtime) DrainPlace(pid int) error {
	if rt.shutdown.Load() {
		return ErrShutdown
	}
	if pid < 0 || pid >= len(rt.places) {
		return fmt.Errorf("core: DrainPlace(%d) of %d places", pid, len(rt.places))
	}
	p := rt.places[pid]
	if p.dead.Load() {
		return fmt.Errorf("core: place %d is down", pid)
	}
	if p.draining.Load() {
		return nil // already draining
	}
	// Refuse before the flag is published: a spawn that saw draining set on
	// the last available place would find nowhere to re-home.
	if sched.NextAlive(pid+1, len(rt.places), rt.down) == pid {
		return fmt.Errorf("core: cannot drain place %d: no other place available", pid)
	}
	if p.draining.Swap(true) {
		return nil // a concurrent drain of p won the race
	}
	// From here on spawns and steals avoid p and re-homing skips it, so
	// nothing moved off its queues bounces back.
	rt.counters.MembershipDrains.Add(1)
	rt.record(pid, 0, obs.KindDrain, -1, int32(p.queueLen()), 0)
	rt.offload(p)
	// Wait for in-flight activities to finish, then release the workers.
	// Two consecutive idle observations close the window where a worker
	// has dequeued an activity but not yet marked itself running.
	for idle := 0; idle < 2; {
		if rt.shutdown.Load() {
			return ErrShutdown
		}
		if p.running() == 0 && p.queueLen() == 0 {
			idle++
		} else {
			idle = 0
			rt.offload(p) // a racing spawn may have slipped in
		}
		time.Sleep(time.Millisecond)
	}
	p.dead.Store(true)
	p.wakeAll()
	return nil
}
