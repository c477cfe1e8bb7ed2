// Package sim is a deterministic discrete-event simulator that replays an
// application task graph (internal/trace) on a virtual cluster under any
// scheduling policy from internal/sched. It is the substitute for the
// paper's 16-node InfiniBand testbed: virtual time lets the repository
// reproduce 128-worker scheduling behaviour — makespans, steal counts,
// message counts, cache miss rates and per-node utilization — on any host,
// using exactly the policy decision code the real runtime executes.
//
// # Model
//
// Each virtual worker owns a private LIFO deque; each place owns a shared
// FIFO deque (paper Fig. 2). Workers execute tasks for their recorded
// costs; spawned children become available partway through the parent's
// execution. An idle worker performs one Algorithm-1 sweep — own deque,
// co-located deques, local shared deque, then remote shared deques in
// randomized order — accumulating modelled software and network delays,
// and goes dormant if the sweep fails; pushes of new work wake dormant
// workers (locally first, then one remote place when the work is
// remotely stealable). Migration costs are charged at execution time:
// payload transfer for the task's data plus one round trip per remote
// reference the task performs away from home, plus a per-miss penalty
// from the LRU cache model.
package sim

import (
	"fmt"
	"math/rand"

	"distws/internal/cachesim"
	"distws/internal/dag"
	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/task"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/vtime"
)

// Options tunes the simulation.
type Options struct {
	// Seed drives victim selection. Zero picks 1.
	Seed int64
	// ChunkOverride, when positive, overrides the policy's distributed
	// steal chunk size (ablation of §V-B3's empirical choice of 2).
	ChunkOverride int
	// ForceSharedFlexible disables Algorithm 1's idle/under-utilized
	// exception: every flexible task maps to the shared deque (ablation
	// of lines 5–8).
	ForceSharedFlexible bool
	// LockContention serializes shared-deque operations through each
	// place's deque lock: a consumer arriving while the lock is held
	// waits its turn (§V: "a local worker might end up waiting for
	// thousands of cycles"). Off by default; enable to study contention
	// on fine-grained workloads.
	LockContention bool
	// Deque selects the worker-queue synchronization model for the
	// contention study. It is consulted only when LockContention is on —
	// the scheduling decisions never change, only the modelled cost of
	// shared-queue operations — so without LockContention every kind
	// reproduces the paper-faithful run bit for bit. Under contention:
	//
	//   - deque.KindMutex (zero value): the paper's mutex-guarded deque —
	//     every operation serializes through the place's lock.
	//   - deque.KindChaseLev: lock-free Chase–Lev — owner-side dequeues
	//     pay only a fence, steals serialize through a CAS window a
	//     quarter the lock's width.
	//   - deque.KindRelaxed: fence-free queues — no serialization at
	//     all; a remote thief takes half the victim's flexible work
	//     (steal-half), and the multiplicity relaxation occasionally
	//     (deterministically, from the thief's rng stream) hands a task
	//     out twice; the duplicate is paid for in transfer and then
	//     discarded by dedup, never executed twice.
	Deque deque.Kind
	// Fault is the injected fault plan: place crashes in virtual time (or
	// after a task count), message loss and latency spikes on the steal
	// path, churn. Nil simulates a fault-free cluster. Crashed places stop
	// executing; their queued and running tasks are re-homed to survivors
	// and re-executed, and thieves exclude them from victim sweeps.
	Fault *fault.Plan
	// Recorder, when non-nil, receives per-worker scheduling events
	// (task start/end, spawns, steal attempts and outcomes, chunk
	// arrivals, crashes) stamped in virtual nanoseconds. Run configures
	// it for the cluster shape and drives its clock from the event loop;
	// export the trace with obs.Recorder.Snapshot after Run returns.
	// Nil (the default) records nothing and costs one branch per event.
	Recorder *obs.Recorder
}

// The cost model's fixed parameters. No exhibit, benchmark or test varies
// them, so they are constants rather than options.
const (
	// cacheBlocks is the modelled cache capacity of one place, shared by
	// its workers, in blocks: a 32 KiB cache of 64-byte lines.
	cacheBlocks = 512
	// missPenaltyNS is the stall charged per modelled cache miss.
	missPenaltyNS int64 = 150
	// remoteRefBytes is the payload of one remote data reference.
	remoteRefBytes = 256
	// stealTimeoutRTTs is how many probe round trips a thief waits for a
	// steal reply before declaring the round trip lost.
	stealTimeoutRTTs = 4
)

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result summarizes one simulated run.
type Result struct {
	MakespanNS   int64
	SequentialNS int64
	Counters     metrics.Snapshot
	// DAG is a RunDAG run's release and input-residency account (zero
	// for Run).
	DAG dag.ExecStats
	// Events is the number of discrete events the engine processed — the
	// denominator for events/sec throughput reporting.
	Events int64
	// PlaceBusyNS is the total busy worker time per place.
	PlaceBusyNS []int64
	// Utilization is each place's busy fraction of the makespan in percent.
	Utilization []float64
}

// Speedup returns sequential time over makespan.
func (r *Result) Speedup() float64 {
	if r.MakespanNS <= 0 {
		return 0
	}
	return float64(r.SequentialNS) / float64(r.MakespanNS)
}

// event kinds.
type evKind uint8

const (
	evSpawn  evKind = iota // a task becomes available
	evWake                 // an idle worker re-checks for work
	evDone                 // a worker finishes its task
	evArrive               // stolen/pushed tasks arrive at a place's shared deque
	evChurn                // an edge of the fault plan's churn timeline
)

type event struct {
	kind    evKind
	worker  int   // evWake, evDone
	taskID  int   // evSpawn, evDone; evChurn: index into engine.churn
	home    int   // evSpawn: resolved home place
	from    int   // evSpawn: spawning place (-1 for roots)
	fromW   int   // evSpawn: spawning worker id (-1 if none/remote)
	place   int   // evArrive
	batch   []int // evArrive payload
	requeue bool  // evSpawn: re-enqueue after a place failure, not a fresh spawn
}

type simWorker struct {
	id    int
	local int
	place *simPlace
	priv  deque.Ring[int]
	busy  bool
	// curTask is the task currently executing (-1 when idle); a crash of
	// the place loses it mid-flight, so recovery re-homes it.
	curTask int
	// wakePending dedups wake events so a dormant worker has at most one
	// outstanding wake.
	wakePending bool
	// rng drives this worker's victim selection, drawing from src.
	rng    *rand.Rand
	src    replaySource
	busyNS int64
}

// simPlace is one modelled place; its §VI-B status, liveness and lifeline
// waiters are the embedded sched.Place.
type simPlace struct {
	sched.Place
	id           int
	shared       deque.Ring[int]
	workers      []*simWorker
	running      int
	queued       int
	pendingWakes int // wakes scheduled but not yet handled
	spawnSeq     uint64
	rr           int
	// executed counts tasks completed here, for AfterTasks crash triggers.
	executed int64
	// cache models the node's data cache: tasks executing at their home
	// place find their blocks warm across repeated visits; migrated tasks
	// start cold (their blocks are aliased per executing place). It is
	// made on the place's first footprint (nil until then: a RunDAG
	// task has none).
	cache *cachesim.Cache
	// lockFreeAt is when the shared deque's lock next becomes available
	// (LockContention only).
	lockFreeAt int64
}

type engine struct {
	g      *trace.Graph
	cl     topology.Cluster
	policy sched.Kind
	opts   Options
	// ctrs takes the per-sweep counts of sched.Thief and sched.Places;
	// tally is the engine's own per-task counts, plain adds on the event
	// loop's one goroutine. Run's result is their sum (counters).
	ctrs    metrics.Counters
	tally   metrics.Snapshot
	events  vtime.Heap[event]
	now     int64
	places  []*simPlace
	workers []*simWorker

	tasksDone int
	lastDone  int64
	remoteRR  int

	// resolvedHome is each task's home place as fixed at spawn time
	// (HomeInherit children are homed at their parent's executing place).
	resolvedHome []int

	// inj evaluates the injected fault plan (nil when fault-free); churn is
	// its timeline, whose edges are evChurn events.
	inj   *fault.Injector
	churn []fault.Edge
	// life is the place half of the scheduler (§VI-B status, lifelines,
	// crash/drain/join), shared with the goroutine runtime, with the engine
	// as its sched.Host.
	life sched.Places[int]
	// childSpawned marks tasks whose children have been scheduled, so a
	// re-executed task does not spawn its subtree twice.
	childSpawned []bool
	// thief runs every worker's remote steal (sched.Thief.Sweep, with the
	// engine as its sched.Engine): the event loop is one goroutine, so one
	// Thief serves them all, pointed at the sweeping worker per sweep.
	// sweeper is that worker and sweepDelay the acquisition latency its
	// sweep has accumulated so far, which delays the stolen task's start.
	thief      sched.Thief
	sweeper    *simWorker
	sweepDelay int64
	// probeRTT is the modelled request/reply round trip of one steal probe.
	probeRTT int64
	// eventsHandled counts processed events for throughput reporting.
	eventsHandled int64
	// rec receives scheduling events in virtual time (nil = tracing off).
	rec *obs.Recorder

	// Reused scratch storage for the hot path, so steady-state simulation
	// performs no per-event heap allocations:
	//   - stealBuf receives each steal chunk (consumed within Steal);
	//   - aliasBuf receives aliased block IDs (consumed within start);
	//   - batchPool recycles evArrive payload slices after delivery.
	stealBuf  []int
	aliasBuf  []uint64
	batchPool [][]int

	// dag, when non-nil, runs the engine in dataflow mode (RunDAG): tasks
	// are released by dependency completion instead of parent spawns, and
	// data movement is accounted against the block directory. See dag.go.
	dag *dagState
}

// getBatch returns a recycled evArrive payload slice (possibly nil; callers
// append into it), and putBatch returns a delivered payload to the pool.
func (e *engine) getBatch() []int {
	if n := len(e.batchPool); n > 0 {
		b := e.batchPool[n-1]
		e.batchPool = e.batchPool[:n-1]
		return b[:0]
	}
	return nil
}

func (e *engine) putBatch(b []int) {
	if cap(b) > 0 {
		e.batchPool = append(e.batchPool, b[:0])
	}
}

// Run simulates graph g on cluster cl under policy, returning the run's
// metrics. The same (graph, cluster, policy, options) always produces the
// same result.
func Run(g *trace.Graph, cl topology.Cluster, policy sched.Kind, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if !sched.Valid(policy) {
		return nil, fmt.Errorf("sim: invalid policy %v", policy)
	}
	if !opts.Deque.Valid() {
		return nil, fmt.Errorf("sim: invalid deque kind %v", opts.Deque)
	}
	opts = opts.withDefaults()
	if err := opts.Fault.Validate(cl.Places); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return newEngine(g, cl, policy, opts, nil).run()
}

// newEngine builds the engine behind Run and RunDAG with its first events
// scheduled: the plan's churn and the roots. The caller has validated its
// inputs and applied option defaults; ds selects dataflow mode (nil for
// fork-join traces).
func newEngine(g *trace.Graph, cl topology.Cluster, policy sched.Kind, opts Options, ds *dagState) *engine {
	e := &engine{g: g, cl: cl, policy: policy, opts: opts, dag: ds}
	e.rec = opts.Recorder
	// Events are stamped with the event loop's virtual time via RecordAt
	// (every record call runs inside its event's handler, so e.now is
	// exactly the event's timestamp). No clock is installed: a closure
	// over the engine would force it to escape to the heap even with
	// tracing off.
	e.rec.Configure(cl.Places, cl.WorkersPerPlace, nil, obs.VirtualNS)
	e.inj = fault.NewInjector(opts.Fault)
	e.resolvedHome = make([]int, len(g.Tasks))
	e.childSpawned = make([]bool, len(g.Tasks))
	e.probeRTT = cl.Net.RoundTripNS(32, 32)
	e.thief = sched.Thief{
		Policy:    policy,
		Places:    cl.Places,
		TimeoutNS: stealTimeoutRTTs * e.probeRTT,
		Inj:       e.inj,
		Ctrs:      &e.ctrs,
	}
	// Places and workers are carved from one slab each (two allocations
	// instead of one per place and worker); the pointer slices index them.
	places := make([]simPlace, cl.Places)
	workers := make([]simWorker, cl.Places*cl.WorkersPerPlace)
	e.places = make([]*simPlace, len(places))
	e.workers = make([]*simWorker, len(workers))
	e.life = sched.Places[int]{
		All:     make([]*sched.Place, cl.Places),
		Policy:  policy,
		Workers: cl.WorkersPerPlace,
		Ctrs:    &e.ctrs,
		Host:    e,
	}
	for p := range places {
		pl := &places[p]
		*pl = simPlace{
			id:      p,
			workers: e.workers[p*cl.WorkersPerPlace : (p+1)*cl.WorkersPerPlace : (p+1)*cl.WorkersPerPlace],
		}
		e.places[p] = pl
		e.life.All[p] = &pl.Place
		for i := range pl.workers {
			w := &workers[p*cl.WorkersPerPlace+i]
			*w = simWorker{
				id:      p*cl.WorkersPerPlace + i,
				local:   i,
				place:   pl,
				curTask: -1,
				src:     newReplaySource(opts.Seed + int64(p*1000+i)),
			}
			w.rng = rand.New(&w.src)
			pl.workers[i] = w
		}
	}

	// The plan's churn is scheduled before any work exists so heap
	// ordering alone decides what it interrupts; late joiners start dead.
	e.churn = opts.Fault.Timeline()
	e.life.Init(e.churn)
	for i, ed := range e.churn {
		e.events.Push(ed.AtNS, event{kind: evChurn, taskID: i})
	}

	if ds != nil {
		// Dataflow mode: the initially ready tasks (in-degree zero) are
		// the roots; each is homed by the run's placement policy.
		e.dagRelease(ds.flow.Ready(ds.relBuf[:0]), -1, -1)
	} else {
		for _, r := range g.Roots {
			home := g.Tasks[r].Home
			if home < 0 || home >= cl.Places {
				home = 0
			}
			e.events.Push(0, event{kind: evSpawn, taskID: r, home: home, from: -1, fromW: -1})
		}
	}
	return e
}

// run is the event loop: it processes events in virtual-time order until
// every task is done and summarizes the run.
func (e *engine) run() (*Result, error) {
	g, cl := e.g, e.cl
	for e.events.Len() > 0 && e.tasksDone < len(g.Tasks) {
		at, ev := e.events.Pop()
		e.now = at
		e.eventsHandled++
		switch ev.kind {
		case evSpawn:
			e.handleSpawn(ev)
		case evWake:
			e.handleWake(ev.worker)
		case evDone:
			e.handleDone(ev)
		case evArrive:
			e.handleArrive(ev)
		case evChurn:
			e.applyChurn(e.churn[ev.taskID])
		}
	}
	if e.tasksDone < len(g.Tasks) {
		return nil, fmt.Errorf("sim: stalled with %d of %d tasks done (scheduler invariant violated)",
			e.tasksDone, len(g.Tasks))
	}

	res := &Result{
		MakespanNS:   e.lastDone,
		SequentialNS: g.Sequential(),
		Counters:     e.counters(),
		Events:       e.eventsHandled,
		PlaceBusyNS:  make([]int64, cl.Places),
	}
	if e.dag != nil {
		res.DAG = e.dag.flow.Stats
	}
	for _, w := range e.workers {
		res.PlaceBusyNS[w.place.id] += w.busyNS
	}
	res.Utilization = make([]float64, cl.Places)
	if e.lastDone > 0 {
		for p, busy := range res.PlaceBusyNS {
			f := 100 * float64(busy) / (float64(e.lastDone) * float64(cl.WorkersPerPlace))
			if f > 100 {
				f = 100
			}
			res.Utilization[p] = f
		}
	}
	return res, nil
}

// counters returns the run's counts: the scheduler halves' counters plus
// the engine's tally (the fields start, handleSpawn, handleDone, findWork,
// Steal and dagFetch add to).
func (e *engine) counters() metrics.Snapshot {
	s, t := e.ctrs.Snapshot(), &e.tally
	s.TasksSpawned += t.TasksSpawned
	s.TasksExecuted += t.TasksExecuted
	s.LocalSteals += t.LocalSteals
	s.TasksMigrated += t.TasksMigrated
	s.Messages += t.Messages
	s.BytesTransferred += t.BytesTransferred
	s.RemoteDataAccess += t.RemoteDataAccess
	s.CacheRefs += t.CacheRefs
	s.CacheMisses += t.CacheMisses
	s.DuplicateTakes += t.DuplicateTakes
	return s
}

// record logs one scheduling event at the current virtual time when
// tracing is on. The nil check is the disabled fast path: one
// predictable branch, no call, no allocation.
func (e *engine) record(place, worker int, k obs.Kind, taskID, arg int32, dur int64) {
	if e.rec != nil {
		e.rec.RecordAt(e.now, place, worker, k, taskID, arg, dur)
	}
}

func classOf(t *trace.Task) task.Class {
	if t.Flexible {
		return task.Flexible
	}
	return task.Sensitive
}

func (e *engine) load(p *simPlace) sched.PlaceLoad {
	// Workers with a wake already scheduled are committed to queued work,
	// so they do not count as spare capacity: without this, a burst of
	// spawns at one instant would map everything to private deques.
	spares := e.cl.WorkersPerPlace - p.running - p.pendingWakes
	if spares < 0 {
		spares = 0
	}
	return sched.PlaceLoad{
		Active:     p.Active(),
		Spares:     spares,
		Size:       p.running + p.queued,
		MaxThreads: e.cl.WorkersPerPlace,
	}
}

// handleSpawn maps a newly available task per Algorithm 1 lines 1–8.
func (e *engine) handleSpawn(ev event) {
	t := &e.g.Tasks[ev.taskID]
	if e.life.Down(ev.home) {
		// The home place failed (or is departing) before the task arrived:
		// the runtime re-homes it to a survivor.
		ev.home = sched.NextAlive(ev.home, len(e.places), e.life.Down)
	}
	home := e.places[ev.home]
	e.resolvedHome[ev.taskID] = ev.home
	if !ev.requeue {
		e.tally.TasksSpawned++
	}
	e.record(ev.home, 0, obs.KindSpawn, int32(ev.taskID), int32(ev.from), 0)

	if ev.from >= 0 && ev.from != ev.home {
		// Cross-place async: ship the task and its payload.
		e.tally.Messages++
		e.tally.BytesTransferred += int64(t.MigBytes)
	}

	target := sched.MapTask(e.policy, classOf(t), e.load(home), home.spawnSeq)
	if e.opts.ForceSharedFlexible && t.Flexible && sched.RemoteStealing(e.policy) {
		target = sched.TargetShared
	}
	home.spawnSeq++
	home.queued++
	home.Assigned()
	if target == sched.TargetShared {
		home.shared.PushBack(ev.taskID)
		e.life.Serve(home.id)
	} else {
		// X10 help-first semantics: a task spawned by a co-located worker
		// lands in that worker's own deque; tasks arriving from elsewhere
		// are spread round robin.
		var w *simWorker
		if ev.fromW >= 0 && e.workers[ev.fromW].place == home {
			w = e.workers[ev.fromW]
		} else {
			w = home.workers[home.rr%len(home.workers)]
			home.rr++
		}
		w.priv.PushBack(ev.taskID)
	}
	e.wakeFor(home, target == sched.TargetShared)
}

// wakeFor wakes an idle worker that could pick up fresh work at place p;
// when the work is remotely stealable and p has no idle workers, one
// dormant remote worker is woken to model a thief noticing the surplus.
func (e *engine) wakeFor(p *simPlace, remotelyStealable bool) {
	if p.Down() {
		return
	}
	for _, w := range p.workers {
		if !w.busy && !w.wakePending {
			w.wakePending = true
			p.pendingWakes++
			e.events.Push(e.now, event{kind: evWake, worker: w.id})
			return
		}
	}
	if !remotelyStealable || !sched.RemoteStealing(e.policy) || len(e.places) == 1 {
		return
	}
	for off := 0; off < len(e.places); off++ {
		q := e.places[(e.remoteRR+off)%len(e.places)]
		if q == p || q.Down() {
			continue
		}
		for _, w := range q.workers {
			if !w.busy && !w.wakePending {
				w.wakePending = true
				q.pendingWakes++
				e.remoteRR = (e.remoteRR + off + 1) % len(e.places)
				e.events.Push(e.now, event{kind: evWake, worker: w.id})
				return
			}
		}
	}
}

func (e *engine) handleWake(worker int) {
	w := e.workers[worker]
	w.wakePending = false
	w.place.pendingWakes--
	if w.busy || w.place.Dead() {
		return
	}
	e.findWork(w)
}

func (e *engine) handleDone(ev event) {
	w := e.workers[ev.worker]
	if w.place.Dead() || !w.busy || w.curTask != ev.taskID {
		// Stale completion: the place crashed (and possibly healed) while
		// this task was executing; the crash handler reset the worker and
		// re-homed the task, so this event no longer names live work.
		return
	}
	w.busy = false
	w.curTask = -1
	w.place.running--
	w.place.executed++
	e.tasksDone++
	e.tally.TasksExecuted++
	e.record(w.place.id, w.local, obs.KindTaskEnd, int32(ev.taskID), 0, 0)
	if e.now > e.lastDone {
		e.lastDone = e.now
	}
	if e.dag != nil {
		// Dependency completion releases dependents even when this place
		// is draining or about to crash: the released tasks are homed (and
		// if need be re-homed by handleSpawn) on survivors.
		e.dagComplete(ev.taskID, w)
	}
	if n, ok := e.inj.CrashAfterTasks(w.place.id); ok && w.place.executed >= n {
		e.life.Crash(w.place.id)
		return
	}
	if w.place.Draining() {
		// No new work for a departing place; once the last in-flight task
		// has flushed, the place leaves the cluster for good.
		if w.place.running == 0 {
			w.place.Drained()
		}
		return
	}
	if e.tasksDone == len(e.g.Tasks) {
		return
	}
	e.findWork(w)
}

func (e *engine) handleArrive(ev event) {
	p, n := e.places[ev.place], len(ev.batch)
	for _, id := range ev.batch {
		p.queued++
		p.shared.PushBack(id)
	}
	e.putBatch(ev.batch)
	if p.Down() {
		// Stolen tasks that reached a crashed or departing thief go on
		// with its queue, as a push racing the crash or drain does in the
		// goroutine runtime.
		e.life.Rehome(p.id, p.Dead())
		return
	}
	e.record(ev.place, 0, obs.KindArrive, -1, int32(n), 0)
	p.Assigned()
	e.wakeFor(p, true)
}

// applyChurn carries out one edge of the fault plan's churn timeline at
// e.now. A revived place has one worker woken so that it starts probing
// for surplus instead of waiting for the next spawn to notice it; a
// drained place with nothing running leaves at once, otherwise when its
// last task completes (handleDone).
func (e *engine) applyChurn(ed fault.Edge) {
	switch ed.Kind {
	case fault.EdgeCrash:
		e.life.Crash(ed.Place)
	case fault.EdgeJoin, fault.EdgeRejoin:
		if e.life.Revive(ed.Place, ed.Kind == fault.EdgeRejoin) {
			e.wakeFor(e.places[ed.Place], true)
		}
	case fault.EdgeDrain:
		if p := e.places[ed.Place]; e.life.Drain(ed.Place) && p.running == 0 {
			p.Drained()
		}
	default:
		e.life.Partition(ed)
	}
}

// Take is the sched.Host side of a crash or drain: it empties p's shared
// deque and then each worker's private one, and after a crash adds every
// task running there at that instant, resetting its worker so a later
// revive restarts the place cleanly (handleDone discards the in-flight
// evDone events these interrupted tasks left behind).
func (e *engine) Take(place int, crashed bool) []int {
	p := e.places[place]
	var ids []int
	for {
		id, ok := p.shared.PopFront()
		if !ok {
			break
		}
		ids = append(ids, id)
	}
	for _, w := range p.workers {
		for {
			id, ok := w.priv.PopBack()
			if !ok {
				break
			}
			ids = append(ids, id)
		}
	}
	p.queued -= len(ids)
	if crashed {
		for _, w := range p.workers {
			if w.busy && w.curTask >= 0 {
				ids = append(ids, w.curTask)
			}
			w.busy = false
			w.curTask = -1
		}
		p.running = 0
	}
	return ids
}

// Ship spawns task id again at place to once its payload has crossed the
// network.
func (e *engine) Ship(id, to int) int {
	bytes := e.g.Tasks[id].MigBytes
	e.events.Push(e.now+e.cl.Net.TransferNS(bytes), event{kind: evSpawn, taskID: id,
		home: to, from: -1, fromW: -1, requeue: true})
	return bytes
}

func (e *engine) Queued(place int) int { return e.places[place].shared.Len() }

// Lend sends the oldest task of from's shared deque to place to, where it
// arrives once its payload has crossed the network.
func (e *engine) Lend(from, to int) (int, bool) {
	p := e.places[from]
	id, ok := p.shared.PopFront()
	if !ok {
		return 0, false
	}
	p.queued--
	bytes := e.g.Tasks[id].MigBytes
	e.events.Push(e.now+e.cl.Net.TransferNS(bytes), event{kind: evArrive, place: to, batch: append(e.getBatch(), id)})
	return bytes, true
}

func (e *engine) Trace(place, worker int, k obs.Kind, arg int32) {
	e.record(place, worker, k, -1, arg, 0)
}

// findWork performs one Algorithm-1 sweep for w at e.now. On failure the
// worker goes dormant until the next wake.
func (e *engine) findWork(w *simWorker) {
	p := w.place
	if p.Down() {
		return
	}
	over := e.cl.Over

	// 1. Own private deque.
	if id, ok := w.priv.PopBack(); ok {
		p.queued--
		e.start(w, id, over.DispatchNS)
		return
	}
	// 2. Co-located workers' private deques.
	for off := 1; off < len(p.workers); off++ {
		peer := p.workers[(w.local+off)%len(p.workers)]
		if id, ok := peer.priv.PopFront(); ok {
			p.queued--
			e.tally.LocalSteals++
			e.record(p.id, w.local, obs.KindStealLocal, int32(id), int32(peer.local), 0)
			e.start(w, id, over.LocalStealNS)
			return
		}
	}
	// 3. The local shared deque. Retrieving a flexible task from the own
	// place's designated deque is a normal dequeue, not a steal.
	if id, ok := p.shared.PopFront(); ok {
		p.queued--
		e.start(w, id, e.sharedDequeDelay(p, false)+over.DispatchNS)
		return
	}
	// 4. Distributed steal.
	if sched.RemoteStealing(e.policy) && e.stealRemote(w) {
		return
	}
	// Nothing found: the failed sweep's tail, then dormancy.
	e.life.FailedSweep(p.id, w.local)
}

// stealRemote is w's distributed steal at e.now: one sched.Thief.Sweep,
// driven by the engine as its sched.Engine. It reports whether the sweep
// found work, which Steal has by then started on w.
func (e *engine) stealRemote(w *simWorker) bool {
	e.thief.Self, e.thief.Rng = w.place.id, w.rng
	e.sweeper, e.sweepDelay = w, 0
	return e.thief.Sweep(e)
}

// Skip is what a modelled thief sees of a victim without a message: whether
// it is down, nothing of its queue (on every kind, which is the contention
// exhibit's model: every live victim costs a probe).
func (e *engine) Skip(victim int) bool { return e.life.Down(victim) }

// Now and Wait keep the sweeping thief's clock: virtual time plus the
// delay its sweep has accumulated. Events are stamped at e.now, when the
// sweep runs.
func (e *engine) Now() int64    { return e.now + e.sweepDelay }
func (e *engine) Wait(ns int64) { e.sweepDelay += ns }
func (e *engine) Record(k obs.Kind, victim int, dur int64) {
	e.record(e.sweeper.place.id, e.sweeper.local, k, -1, int32(victim), dur)
}

// Steal is the hand-over and the landing of one delivered request: the
// probe round trip, the oldest chunk off the victim's shared deque
// (steal-half and the multiplicity model under the relaxed kind), the
// wait for the victim's deque lock and the payload transfer all delay the
// first task's start on the thief; the rest arrive at its place's shared
// deque at the same time.
func (e *engine) Steal(v, chunkSize int) int {
	w := e.sweeper
	victim := e.places[v]
	e.sweepDelay += e.probeRTT
	if e.opts.ChunkOverride > 0 {
		chunkSize = e.opts.ChunkOverride
	}
	relaxed := e.opts.LockContention && e.opts.Deque == deque.KindRelaxed
	if relaxed {
		chunkSize = sched.StealHalf(victim.shared.Len())
	}
	chunk := victim.shared.StealChunkAppend(e.stealBuf[:0], chunkSize)
	e.stealBuf = chunk[:0]
	if relaxed && len(chunk) > 0 && w.rng.Intn(relaxedDupOneIn) == 0 {
		// Multiplicity: the take's last task was concurrently retaken at
		// the victim — the thief's copy is a duplicate. Dedup discards it
		// on arrival (it is never executed twice), but its transfer was
		// paid for; the real task stays with the victim.
		dup := chunk[len(chunk)-1]
		chunk = chunk[:len(chunk)-1]
		victim.shared.PushBack(dup)
		e.tally.DuplicateTakes++
		bytes := e.g.Tasks[dup].MigBytes
		e.tally.BytesTransferred += int64(bytes)
		e.sweepDelay += e.cl.Net.TransferNS(bytes)
	}
	if len(chunk) == 0 {
		return 0
	}
	// Holding the victim's shared-deque lock (or CAS window) for the
	// removal; the width already priced into the probe RTT is excluded.
	e.sweepDelay += e.stealDequeExtraNS(victim)
	victim.queued -= len(chunk)
	var bytes int
	for _, id := range chunk {
		bytes += e.g.Tasks[id].MigBytes
	}
	e.sweepDelay += e.cl.Net.TransferNS(bytes)
	e.tally.BytesTransferred += int64(bytes)
	e.record(w.place.id, w.local, obs.KindStealRemote, int32(chunk[0]), int32(v), e.sweepDelay)
	if len(chunk) > 1 {
		batch := append(e.getBatch(), chunk[1:]...)
		e.events.Push(e.now+e.sweepDelay, event{kind: evArrive, place: w.place.id, batch: batch})
	}
	e.start(w, chunk[0], e.sweepDelay)
	return len(chunk)
}

// sharedDequeDelay returns the cost of one shared-deque operation at p:
// the base lock cost plus, under LockContention, the wait for the lock
// to free (operations serialize through it). steal distinguishes a
// remote thief's removal from an owner-side dequeue — the lock-free
// kinds price the two differently (the mutex kind does not care).
func (e *engine) sharedDequeDelay(p *simPlace, steal bool) int64 {
	base := e.cl.Over.SharedDequeNS
	if !e.opts.LockContention {
		return base
	}
	switch e.opts.Deque {
	case deque.KindChaseLev:
		// Owner-side take: a fence, no lock, no waiting. Steals contend
		// only on the CAS advancing top — a critical section a quarter
		// the mutex's width.
		if !steal {
			return base / 4
		}
		return e.serializeDeque(p, base/4)
	case deque.KindRelaxed:
		// Fence-free loads and stores only: no CAS, no serialization,
		// for owners and thieves alike. The price is paid elsewhere —
		// in occasional duplicate takes (multiplicity).
		return base / 8
	default:
		return e.serializeDeque(p, base)
	}
}

// serializeDeque charges one critical section of width cost at p's
// shared deque: the operation waits for the lock (or CAS window) to
// free, then holds it for cost.
func (e *engine) serializeDeque(p *simPlace, cost int64) int64 {
	start := e.now
	if p.lockFreeAt > start {
		start = p.lockFreeAt
	}
	p.lockFreeAt = start + cost
	return (start - e.now) + cost
}

// stealDequeExtraNS returns what a remote removal costs beyond the base
// operation width already priced into the probe round trip: the wait for
// the victim's lock (mutex) or CAS window (Chase–Lev) to free. The
// relaxed kind never serializes, so its extra is zero.
func (e *engine) stealDequeExtraNS(victim *simPlace) int64 {
	if !e.opts.LockContention {
		return 0
	}
	switch e.opts.Deque {
	case deque.KindChaseLev:
		return e.serializeDeque(victim, e.cl.Over.SharedDequeNS/4) - e.cl.Over.SharedDequeNS/4
	case deque.KindRelaxed:
		return 0
	default:
		return e.serializeDeque(victim, e.cl.Over.SharedDequeNS) - e.cl.Over.SharedDequeNS
	}
}

// relaxedDupOneIn is the modelled odds of a multiplicity duplicate per
// remote take under the relaxed deques: one stolen chunk in 64 hands its
// last task out twice. The draw comes from the thief's deterministic rng
// stream, so runs stay reproducible.
const relaxedDupOneIn = 64

// start begins executing task id on w after startDelay of acquisition
// latency, charging migration, cache, and communication costs.
func (e *engine) start(w *simWorker, id int, startDelay int64) {
	t := &e.g.Tasks[id]
	p := w.place
	w.busy = true
	w.curTask = id
	p.running++
	p.Assigned()
	e.record(p.id, w.local, obs.KindTaskStart, int32(id), int32(e.resolvedHome[id]), 0)

	service := startDelay
	if e.policy == sched.DistWS || e.policy == sched.DistWSNS {
		// Bookkeeping for the dual-deque scheme and load exploration
		// (the single-node overhead the paper reports).
		service += e.cl.Over.MapDecisionNS
	}
	if e.dag != nil {
		// Dataflow mode: non-resident input blocks are fetched before the
		// task runs, at the network's modelled transfer cost.
		service += e.dagFetch(id, w)
	}

	// A task is migrated when it executes away from its home place as
	// resolved at spawn time (the victim's place for stolen tasks; the
	// parent's executing place for HomeInherit children).
	migrated := p.id != e.resolvedHome[id]
	if migrated {
		e.tally.TasksMigrated++
		if t.MigMsgs > 0 {
			// Each remote reference is a round trip for cache-line-sized
			// payload; this is the dominant cost non-selective stealing
			// pays on locality-sensitive tasks.
			e.tally.Messages += int64(t.MigMsgs)
			e.tally.RemoteDataAccess += int64(t.MigMsgs)
			e.tally.BytesTransferred += int64(t.MigMsgs * remoteRefBytes)
			service += int64(t.MigMsgs) * e.cl.Net.RoundTripNS(32, remoteRefBytes)
		}
	}
	if t.BaseMsgs > 0 {
		e.tally.Messages += int64(t.BaseMsgs)
		e.tally.BytesTransferred += int64(t.BaseBytes)
	}
	if len(t.Blocks) > 0 {
		reps := t.BlockReps
		if reps < 1 {
			reps = 1
		}
		switch {
		case migrated && !t.Flexible:
			// A migrated locality-sensitive task keeps referencing its
			// home place's data: every pass misses (the data is remote
			// and not locally cacheable) — the cache pollution and remote
			// reference burst the paper attributes to non-selective
			// stealing (§VIII-Q3).
			n := int64(len(t.Blocks)) * int64(reps)
			e.tally.CacheRefs += n
			e.tally.CacheMisses += n
			service += n * missPenaltyNS
		default:
			blocks := t.Blocks
			if migrated {
				// A migrated flexible task carries its data: it pays one
				// cold pass at the thief (aliased blocks), then hits.
				blocks = appendAliasBlocks(e.aliasBuf[:0], t.Blocks, uint64(p.id))
				e.aliasBuf = blocks[:0]
			}
			if p.cache == nil {
				p.cache = cachesim.New(cacheBlocks)
			}
			hits, misses := p.cache.TouchAll(blocks, reps)
			e.tally.CacheRefs += int64(hits + misses)
			e.tally.CacheMisses += int64(misses)
			service += int64(misses) * missPenaltyNS
		}
	}

	service += t.CostNS
	doneAt := e.now + service
	w.busyNS += service
	e.events.Push(doneAt, event{kind: evDone, worker: w.id, taskID: id})

	// Children become available during the parent's execution. A task
	// re-executed after a crash has already scheduled its children; the
	// subtree must not be spawned twice.
	if e.childSpawned[id] {
		return
	}
	e.childSpawned[id] = true
	for i, c := range t.Children {
		frac := childFrac(t, i)
		at := e.now + startDelay + int64(frac*float64(t.CostNS))
		if at > doneAt {
			at = doneAt
		}
		child := &e.g.Tasks[c]
		home := child.Home
		if child.HomeMode == trace.HomeInherit {
			home = p.id
		}
		if home < 0 || home >= len(e.places) {
			home = 0
		}
		e.events.Push(at, event{kind: evSpawn, taskID: c, home: home, from: p.id, fromW: w.id})
	}
}

// childFrac returns when child i spawns as a fraction of the parent's
// execution: the recorded fraction, or an even spread.
func childFrac(t *trace.Task, i int) float64 {
	if len(t.SpawnFrac) == len(t.Children) && len(t.SpawnFrac) > 0 {
		return t.SpawnFrac[i]
	}
	n := len(t.Children)
	return float64(i+1) / float64(n+1)
}

// appendAliasBlocks maps block IDs into a place-specific namespace,
// modelling that a migrated task's data is cold in the thief's cache. The
// aliased IDs are appended to dst so callers can reuse scratch storage.
func appendAliasBlocks(dst []uint64, blocks []uint64, place uint64) []uint64 {
	const placeShift = 56
	for _, b := range blocks {
		dst = append(dst, b|(place+1)<<placeShift)
	}
	return dst
}
