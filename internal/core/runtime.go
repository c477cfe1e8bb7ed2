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
	// Deque selects the worker-queue implementation (deque.Kinds):
	// deque.KindMutex (zero value) is the paper-faithful mutex-guarded
	// deque; deque.KindChaseLev swaps in lock-free Chase–Lev private
	// deques; deque.KindRelaxed gives every worker the paper's Fig. 2
	// pair, a Chase–Lev private deque (LIFO, exactly-once) and a
	// fence-free FIFO multiplicity queue of flexible tasks. A remote
	// thief then takes the older half of one victim worker's flexible
	// queue (steal-half) instead of a chunk of the place's shared deque,
	// so no thief, local or remote, takes a lock on the victim's hot path.
	Deque deque.Kind
	// Fault injects failures: place crashes at an instant (wall time since
	// New) or after a task count, message loss and latency spikes on the
	// remote-steal path, and churn (late joins, drains, flaps). Nil runs
	// fault-free. A crashed place fail-stops (its workers exit after the
	// activity they are running); queued work is re-homed to survivors.
	Fault *fault.Plan
	// Recorder, when non-nil, receives per-worker scheduling events
	// (activity start/end, spawns, steal attempts and outcomes, chunk
	// arrivals, crashes) stamped in wall-clock nanoseconds since New.
	// Nil (the default) records nothing and costs one branch per event.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Cluster.Places == 0 && c.Cluster.WorkersPerPlace == 0 {
		c.Cluster = topology.Laptop()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

const (
	// idlePoll is the longest an idle worker blocks between work-finding
	// sweeps. A push wakes the idle workers it concerns, so this is the
	// bound on a missed wake, not the way work is found. Either wake out
	// of the block costs 60-75 µs (p50 on a 2-vCPU host) before the
	// worker runs again, which is why it spins first (idleSpin).
	idlePoll = 200 * time.Microsecond
	// idleSpin is how long into an idle stretch a worker polls its wake
	// token instead of blocking on it: a goroutine woken over a channel
	// starts 60-75 µs (p50) after the send on a 2-vCPU host, whether it
	// had blocked for 10 µs or 1 ms (BenchmarkIdleWake), so a worker that
	// parks at once pays that on every barrier it waits out. Counted from
	// the stretch's start, so each stretch spins at most once (worker.spin).
	idleSpin = 100 * time.Microsecond
	// stealTimeout is how long a thief waits before declaring a remote
	// steal round trip lost; it is also the base of the exponential
	// backoff between retries.
	stealTimeout = 200 * time.Microsecond
)

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
	// relaxed is true under deque.KindRelaxed: flexible work lives in the
	// workers' flexible queues, remote thieves take steal-half from them,
	// and every take that is not from a private deque is claim-checked
	// because those queues may hand a task out twice.
	relaxed bool

	// inj evaluates the injected fault plan (nil-safe when fault-free).
	inj *fault.Injector
	// life is the place half of the scheduler (§VI-B status, lifelines,
	// crash/drain/join), shared with the simulator.
	life sched.Places[*activity]

	// idlePoll and stealTimeout are the constants of the same names; a
	// test that needs a worker never to wake on its own, or a thief to
	// give up sooner, builds the runtime with newRuntime.
	idlePoll, stealTimeout time.Duration

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
	// walked is closed when the goroutine applying the fault plan's churn
	// timeline (walk) has returned: at the end of the timeline or on
	// Shutdown, which waits for it.
	walked chan struct{}
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

// New starts a runtime: all worker goroutines are live on return.
func New(cfg Config) (*Runtime, error) { return newRuntime(cfg, idlePoll, stealTimeout) }

func newRuntime(cfg Config, idlePoll, stealTimeout time.Duration) (*Runtime, error) {
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
		cfg:          cfg,
		relaxed:      cfg.Deque == deque.KindRelaxed,
		rec:          cfg.Recorder,
		inj:          fault.NewInjector(cfg.Fault),
		idlePoll:     idlePoll,
		stealTimeout: stealTimeout,
		stopCh:       make(chan struct{}),
		walked:       make(chan struct{}),
		started:      time.Now(),
	}
	if rt.rec != nil {
		rt.rec.Configure(cfg.Cluster.Places, cfg.Cluster.WorkersPerPlace, rt.nowNS, obs.WallNS)
	}
	rt.places = make([]*place, cfg.Cluster.Places)
	rt.life = sched.Places[*activity]{
		All:     make([]*sched.Place, cfg.Cluster.Places),
		Policy:  cfg.Policy,
		Workers: cfg.Cluster.WorkersPerPlace,
		Ctrs:    &rt.counters,
		Host:    host{rt},
	}
	for p := range rt.places {
		rt.places[p] = newPlace(rt, p)
		rt.life.All[p] = &rt.places[p].Place
	}
	churn := cfg.Fault.Timeline()
	rt.life.Init(churn) // late joiners start dead: no workers until their join
	for _, p := range rt.places {
		if !p.Dead() {
			p.startWorkers()
		}
	}
	go rt.walk(churn)
	return rt, nil
}

// walk applies the churn timeline on the runtime's clock, each edge at its
// instant, until the timeline ends or the runtime shuts down.
func (rt *Runtime) walk(churn []fault.Edge) {
	defer close(rt.walked)
	for _, ed := range churn {
		if d := time.Duration(ed.AtNS) - time.Since(rt.started); d > 0 {
			select {
			case <-rt.stopCh:
				return
			case <-time.After(d):
			}
		}
		if rt.shutdown.Load() {
			return
		}
		switch ed.Kind {
		case fault.EdgeCrash:
			rt.crashPlace(rt.places[ed.Place])
		case fault.EdgeJoin, fault.EdgeRejoin:
			rt.revive(rt.places[ed.Place], ed.Kind == fault.EdgeRejoin)
		case fault.EdgeDrain:
			_ = rt.DrainPlace(ed.Place) // refused only once p is down or the runtime shut down
		default:
			rt.life.Partition(ed)
		}
	}
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
		for _, p := range rt.places {
			p.wakeAll()
		}
	}
	done := make(chan struct{})
	go func() {
		rt.workerWG.Wait()
		<-rt.walked
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
	fin := &finish{}
	fin.add(1)
	rt.spawn(&activity{
		body: body,
		loc:  task.SensitiveLocality,
		home: 0,
		fin:  fin,
	}, -1, nil)
	select {
	case <-fin.wait():
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
	switch {
	case a.bag: // its items are counted as they run (runBag)
	case spawner != nil:
		spawner.stats.spawned.Add(1)
	default:
		rt.counters.TasksSpawned.Add(1)
	}
	if rt.life.Down(a.home) {
		a.home = sched.NextAlive(a.home, len(rt.places), rt.life.Down)
	}
	home := rt.places[a.home]
	rt.record(a.home, 0, obs.KindSpawn, -1, int32(from), 0)
	if from >= 0 && from != a.home {
		rt.counters.Messages.Add(1)
		rt.counters.BytesTransferred.Add(int64(a.loc.MigrationBytes))
	}
	home.enqueue(a, home.mapTarget(a), spawner)
}

// crashPlace fail-stops p (sched.Places.Crash): its queued activities are
// re-homed to survivors and re-executed there, and its workers exit after
// the activity each is running. The ordering (mark dead, then take the
// queues) together with assigned's re-check guarantees no activity is
// stranded by a racing spawn.
func (rt *Runtime) crashPlace(p *place) {
	if rt.life.Crash(p.id) {
		p.wakeAll() // idle workers notice the death and exit
	}
}

// revive starts fresh workers at a dead place (sched.Places.Revive): a late
// joiner's arrival, or (rejoin) the up edge of a flap.
func (rt *Runtime) revive(p *place, rejoin bool) {
	rt.churnMu.Lock()
	defer rt.churnMu.Unlock()
	if rt.shutdown.Load() || !p.Dead() {
		return
	}
	p.wg.Wait() // let any previous worker generation exit fully
	if rt.life.Revive(p.id, rejoin) {
		p.startWorkers()
	}
}

// DrainPlace gracefully removes place p from the runtime
// (sched.Places.Drain): the place stops accepting new work (spawns
// re-home, thieves exclude it), its queued-but-unstarted activities are
// offloaded to survivors, and the call blocks until the activities already
// running there have finished, at which point the place's workers exit.
// Draining the last available place is refused.
func (rt *Runtime) DrainPlace(pid int) error {
	if rt.shutdown.Load() {
		return ErrShutdown
	}
	if pid < 0 || pid >= len(rt.places) {
		return fmt.Errorf("core: DrainPlace(%d) of %d places", pid, len(rt.places))
	}
	p := rt.places[pid]
	if p.Dead() {
		return fmt.Errorf("core: place %d is down", pid)
	}
	// Refuse before the flag is published: a spawn that saw draining set on
	// the last available place would find nowhere to re-home.
	if !p.Draining() && sched.NextAlive(pid+1, len(rt.places), rt.life.Down) == pid {
		return fmt.Errorf("core: cannot drain place %d: no other place available", pid)
	}
	if !rt.life.Drain(pid) {
		return nil // already draining, or a concurrent drain of p won the race
	}
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
			rt.life.Rehome(pid, false) // a racing spawn may have slipped in
		}
		time.Sleep(time.Millisecond)
	}
	p.Drained()
	p.wakeAll()
	return nil
}

// host is the runtime as the sched.Host of its places' lifecycle.
type host struct{ *Runtime }

// Take empties every queue of place pid. Relaxed flexible queues may hand
// an activity out twice under concurrent takes, so under that kind an
// activity in the list may also be listed twice, or queued or running
// elsewhere. Take claims each one: a lost claim is such a copy and is
// dropped, and a won one is re-homed as a fresh activity, because Ship
// writes what it ships and stale copies of the original may still sit in
// other queues (their takers' claims now fail). Deque operations hand out
// each activity at most once otherwise, so concurrent takers cannot
// duplicate work.
func (h host) Take(pid int, _ bool) []*activity {
	p := h.places[pid]
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
	if h.relaxed {
		fresh := orphans[:0]
		for _, a := range orphans {
			if a.claimed.CompareAndSwap(false, true) {
				fresh = append(fresh, &activity{body: a.body, loc: a.loc, home: a.home, fin: a.fin, bag: a.bag})
			}
		}
		orphans = fresh
	}
	return orphans
}

func (h host) Ship(a *activity, to int) int {
	a.home = to
	home := h.places[to]
	home.enqueue(a, home.mapTarget(a), nil)
	return a.loc.MigrationBytes
}

func (h host) Queued(pid int) int { return h.places[pid].shared.Len() }

func (h host) Lend(from, to int) (int, bool) {
	a, ok := h.places[from].shared.Poll()
	if !ok {
		return 0, false
	}
	h.places[to].enqueueStolen([]*activity{a})
	return a.loc.MigrationBytes, true
}

func (h host) Trace(place, worker int, k obs.Kind, arg int32) {
	h.record(place, worker, k, -1, arg, 0)
}
