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

	"distws/internal/adapt"
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
	//   - deque.KindRelaxed: fence-free queues with receiver-initiated
	//     stealing — no serialization at all; thieves post a request and
	//     receive a steal-half donation, and the multiplicity relaxation
	//     occasionally (deterministically, from the thief's rng stream)
	//     hands a task out twice; the duplicate is paid for in transfer
	//     and then discarded by dedup, never executed twice.
	Deque deque.Kind
	// Fault is the injected fault plan: place crashes in virtual time (or
	// after a task count), message loss and latency spikes on the steal
	// path. Nil simulates a fault-free cluster. Crashed places stop
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
	// Adapt, when non-nil and the policy is sched.Adaptive, is the online
	// classification controller driving the run; callers pass one to
	// inspect its learned state (classifications, flips, chunk sizes)
	// after Run returns. Nil under sched.Adaptive creates a fresh
	// controller with default thresholds. Ignored under other policies.
	Adapt *adapt.Controller
}

// The cost model's fixed parameters. No exhibit, benchmark or test varies
// them, so they are constants rather than options.
const (
	// cacheBlocks is the per-worker modelled L1d capacity in blocks: a
	// 32 KiB cache of 64-byte lines.
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
	Graph        string
	Policy       sched.Kind
	Cluster      topology.Cluster
	MakespanNS   int64
	SequentialNS int64
	Counters     metrics.Snapshot
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
	evSpawn     evKind = iota // a task becomes available
	evWake                    // an idle worker re-checks for work
	evDone                    // a worker finishes its task
	evArrive                  // stolen/pushed tasks arrive at a place's shared deque
	evCrash                   // a place fail-stops (fault injection)
	evJoin                    // an absent place joins the cluster
	evDrain                   // a place starts a graceful drain
	evHeal                    // a flapped place recovers (place >= 0) or a partition heals (place -1)
	evPartition               // an injected partition takes effect (place = smaller-side size)
)

type event struct {
	kind    evKind
	worker  int   // evWake, evDone
	taskID  int   // evSpawn, evDone
	home    int   // evSpawn: resolved home place
	from    int   // evSpawn: spawning place (-1 for roots)
	fromW   int   // evSpawn: spawning worker id (-1 if none/remote)
	place   int   // evArrive, evCrash
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

type simPlace struct {
	id           int
	shared       deque.Ring[int]
	workers      []*simWorker
	running      int
	queued       int
	pendingWakes int // wakes scheduled but not yet handled
	active       bool
	failedSweeps int
	spawnSeq     uint64
	rr           int
	// dead marks a crashed or not-yet-joined place: it executes nothing,
	// answers no steals, and is excluded from victim sweeps, wakes, and
	// task homing.
	dead bool
	// draining marks a place departing gracefully: it refuses new steals
	// and starts no new work, but its in-flight tasks complete and their
	// results count normally (no re-execution). Once the last one
	// finishes, the place flips to dead.
	draining bool
	// executed counts tasks completed here, for AfterTasks crash triggers.
	executed  int64
	lifelines []bool // waiting places registered on this place
	// cache models the node's data cache: tasks executing at their home
	// place find their blocks warm across repeated visits; migrated tasks
	// start cold (their blocks are aliased per executing place).
	cache *cachesim.Cache
	// lockFreeAt is when the shared deque's lock next becomes available
	// (LockContention only).
	lockFreeAt int64
}

type engine struct {
	g       *trace.Graph
	cl      topology.Cluster
	policy  sched.Kind
	opts    Options
	ctrs    metrics.Counters
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

	// inj evaluates the injected fault plan (nil when fault-free).
	inj *fault.Injector
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
	// ctrl is the adapt feedback controller (non-nil only under
	// sched.Adaptive): it supplies each task's online classification in
	// place of the trace annotation, the per-place steal chunk size, and
	// the latency-biased victim order.
	ctrl *adapt.Controller
	// taskKind is each task's interned adapt kind id (sched.Adaptive only).
	taskKind []int32

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
	// exactly the event's timestamp). No Clock is installed: a closure
	// over the engine would force it to escape to the heap even with
	// tracing off.
	e.rec.Configure(cl.Places, cl.WorkersPerPlace, nil, obs.VirtualNS)
	e.inj = fault.NewInjector(opts.Fault)
	if policy == sched.Adaptive {
		e.ctrl = opts.Adapt
		if e.ctrl == nil {
			// The event loop is one goroutine, so its private controller
			// can skip internal locking.
			e.ctrl = adapt.New(adapt.Config{Places: cl.Places, Unsynchronized: true})
		}
		// Kinds are interned up front from observable task descriptors —
		// never from the Flexible annotation, which the adaptive policy
		// must not read. Signatures collapse to a handful of kinds, so a
		// local memo keeps this loop off the controller mutex.
		e.taskKind = make([]int32, len(g.Tasks))
		memo := make(map[uint64]int32, 16)
		for i := range g.Tasks {
			t := &g.Tasks[i]
			sig := adapt.Signature(t.CostNS, len(t.Blocks), t.MigMsgs, t.MigBytes)
			id, ok := memo[sig]
			if !ok {
				id = e.ctrl.Intern(sig)
				memo[sig] = id
			}
			e.taskKind[i] = id
		}
	}
	e.resolvedHome = make([]int, len(g.Tasks))
	e.childSpawned = make([]bool, len(g.Tasks))
	e.probeRTT = cl.Net.RoundTripNS(32, 32)
	e.thief = sched.Thief{
		Policy:    policy,
		Places:    cl.Places,
		Receiver:  opts.LockContention && opts.Deque == deque.KindRelaxed,
		TimeoutNS: stealTimeoutRTTs * e.probeRTT,
		Ctrl:      e.ctrl,
		Inj:       e.inj,
		Ctrs:      &e.ctrs,
	}
	// Places and workers are carved from one slab each (two allocations
	// instead of one per place and worker); the pointer slices index them.
	places := make([]simPlace, cl.Places)
	workers := make([]simWorker, cl.Places*cl.WorkersPerPlace)
	e.places = make([]*simPlace, len(places))
	e.workers = make([]*simWorker, len(workers))
	for p := range places {
		pl := &places[p]
		*pl = simPlace{
			id:        p,
			lifelines: make([]bool, cl.Places),
			cache:     cachesim.New(cacheBlocks),
			workers:   e.workers[p*cl.WorkersPerPlace : (p+1)*cl.WorkersPerPlace : (p+1)*cl.WorkersPerPlace],
		}
		e.places[p] = pl
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

	// Schedule the plan's virtual-time crashes before any work exists so
	// heap ordering alone decides what they interrupt.
	for p := range e.places {
		if at, ok := e.inj.CrashAtNS(p); ok {
			e.events.Push(at, event{kind: evCrash, place: p})
		}
	}
	// Churn schedule: late joiners start absent, drains and flap cycles
	// are timed events, partitions get bracketing marker events so the
	// trace shows when the cut opened and healed (the cut itself is
	// evaluated per steal probe against the virtual clock).
	if f := opts.Fault; f != nil {
		for _, j := range f.Joins {
			e.places[j.Place].dead = true
			e.events.Push(j.AtNS, event{kind: evJoin, place: j.Place})
		}
		for _, d := range f.Drains {
			e.events.Push(d.AtNS, event{kind: evDrain, place: d.Place})
		}
		for _, fl := range f.Flaps {
			period := fl.DownNS + fl.UpNS
			for i := 0; i < fl.Cycles; i++ {
				at := fl.AtNS + int64(i)*period
				e.events.Push(at, event{kind: evCrash, place: fl.Place})
				e.events.Push(at+fl.DownNS, event{kind: evHeal, place: fl.Place})
			}
		}
		for _, part := range f.Partitions {
			e.events.Push(part.AtNS, event{kind: evPartition, place: len(part.GroupA)})
			if part.HealNS > 0 {
				e.events.Push(part.HealNS, event{kind: evHeal, place: -1})
			}
		}
	}

	if ds != nil {
		// Dataflow mode: the initially ready tasks (in-degree zero) are
		// the roots; each is homed by the run's placement policy.
		e.dagRelease(ds.tracker.Ready(ds.relBuf[:0]), -1, -1)
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
		case evCrash:
			e.crashPlace(e.places[ev.place])
		case evJoin:
			e.revive(e.places[ev.place], false)
		case evDrain:
			e.drainPlace(e.places[ev.place])
		case evHeal:
			if ev.place < 0 {
				e.record(0, 0, obs.KindHeal, -1, -1, 0)
			} else {
				e.revive(e.places[ev.place], true)
			}
		case evPartition:
			e.record(0, 0, obs.KindPartition, -1, int32(ev.place), 0)
		}
	}
	if e.tasksDone < len(g.Tasks) {
		return nil, fmt.Errorf("sim: stalled with %d of %d tasks done (scheduler invariant violated)",
			e.tasksDone, len(g.Tasks))
	}

	res := &Result{
		Graph:        g.Name,
		Policy:       e.policy,
		Cluster:      cl,
		MakespanNS:   e.lastDone,
		SequentialNS: g.Sequential(),
		Counters:     e.ctrs.Snapshot(),
		Events:       e.eventsHandled,
		PlaceBusyNS:  make([]int64, cl.Places),
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
		Active:     p.active,
		Spares:     spares,
		Size:       p.running + p.queued,
		MaxThreads: e.cl.WorkersPerPlace,
	}
}

// handleSpawn maps a newly available task per Algorithm 1 lines 1–8.
func (e *engine) handleSpawn(ev event) {
	t := &e.g.Tasks[ev.taskID]
	if e.down(ev.home) {
		// The home place failed (or is departing) before the task arrived:
		// the runtime re-homes it to a survivor.
		ev.home = sched.NextAlive(ev.home, len(e.places), e.down)
	}
	home := e.places[ev.home]
	e.resolvedHome[ev.taskID] = ev.home
	if !ev.requeue {
		e.ctrs.TasksSpawned.Add(1)
	}
	e.record(ev.home, 0, obs.KindSpawn, int32(ev.taskID), int32(ev.from), 0)

	if ev.from >= 0 && ev.from != ev.home {
		// Cross-place async: ship the task and its payload.
		e.ctrs.Messages.Add(1)
		e.ctrs.BytesTransferred.Add(int64(t.MigBytes))
	}

	class := classOf(t)
	if e.ctrl != nil {
		// Adaptive: the controller's learned classification replaces the
		// programmer's annotation; the mapping rule itself is Algorithm 1.
		class = e.ctrl.Classify(e.taskKind[ev.taskID])
	}
	target := sched.MapTask(e.policy, class, e.load(home), home.spawnSeq)
	if e.opts.ForceSharedFlexible && t.Flexible && sched.RemoteStealing(e.policy) {
		target = sched.TargetShared
	}
	home.spawnSeq++
	home.queued++
	home.active = true
	home.failedSweeps = 0
	if target == sched.TargetShared {
		home.shared.PushBack(ev.taskID)
		if e.policy == sched.LifelineWS {
			e.serveLifelines(home)
		}
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
	if p.dead || p.draining {
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
		if q == p || q.dead || q.draining {
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
	if w.busy || w.place.dead {
		return
	}
	e.findWork(w)
}

func (e *engine) handleDone(ev event) {
	w := e.workers[ev.worker]
	if w.place.dead || !w.busy || w.curTask != ev.taskID {
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
	e.ctrs.TasksExecuted.Add(1)
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
		e.crashPlace(w.place)
		return
	}
	if w.place.draining {
		// No new work for a departing place; once the last in-flight task
		// has flushed, the place leaves the cluster for good.
		if w.place.running == 0 {
			w.place.dead = true
		}
		return
	}
	if e.tasksDone == len(e.g.Tasks) {
		return
	}
	e.findWork(w)
}

func (e *engine) handleArrive(ev event) {
	p := e.places[ev.place]
	if p.dead || p.draining {
		// Stolen tasks in flight toward a crashed or departing thief:
		// re-home them so the work is not lost with the place. A crash
		// counts as re-execution (state was lost); a drain merely offloads
		// tasks that never started.
		for _, id := range ev.batch {
			if p.dead {
				e.ctrs.TasksReExecuted.Add(1)
			} else {
				e.ctrs.TasksOffloaded.Add(1)
			}
			e.events.Push(e.now, event{kind: evSpawn, taskID: id,
				home: sched.NextAlive(ev.place, len(e.places), e.down), from: -1, fromW: -1, requeue: true})
		}
		e.putBatch(ev.batch)
		return
	}
	e.record(ev.place, 0, obs.KindArrive, -1, int32(len(ev.batch)), 0)
	for _, id := range ev.batch {
		p.queued++
		p.shared.PushBack(id)
	}
	e.putBatch(ev.batch)
	p.active = true
	p.failedSweeps = 0
	e.wakeFor(p, true)
}

// down reports that place p is dead or draining: the view thieves and the
// re-homing rule (sched.NextAlive) take of it.
func (e *engine) down(p int) bool { return e.places[p].dead || e.places[p].draining }

// crashPlace fail-stops p: every queued task (shared and private deques)
// and every task running there at the instant of the crash is re-homed to
// a surviving place and re-executed. Recovery ships each orphan's payload
// once, mirroring a resilient-finish re-spawn.
func (e *engine) crashPlace(p *simPlace) {
	if p.dead {
		return
	}
	p.dead = true
	p.active = false
	e.ctrs.PlacesLost.Add(1)

	orphans := e.takeQueued(p)
	for _, w := range p.workers {
		if w.busy && w.curTask >= 0 {
			orphans = append(orphans, w.curTask)
		}
		// Reset worker state so a later heal restarts the place cleanly;
		// the stale-completion guard in handleDone discards the in-flight
		// evDone events these interrupted tasks left behind.
		w.busy = false
		w.curTask = -1
	}
	p.running = 0

	e.record(p.id, 0, obs.KindCrash, -1, int32(len(orphans)), 0)
	e.ctrs.TasksReExecuted.Add(int64(len(orphans)))
	e.rehome(p, orphans)
}

// takeQueued empties p's shared deque and then each worker's private one,
// and returns the tasks in that order: what a crash orphans and a drain
// offloads.
func (e *engine) takeQueued(p *simPlace) []int {
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
	return ids
}

// rehome ships the tasks taken off p to the surviving places after it,
// round robin; each is spawned again once its payload has been transferred.
func (e *engine) rehome(p *simPlace, ids []int) {
	for i, id := range ids {
		delay := e.cl.Net.TransferNS(e.g.Tasks[id].MigBytes)
		e.events.Push(e.now+delay, event{kind: evSpawn, taskID: id,
			home: sched.NextAlive(p.id+1+i, len(e.places), e.down), from: -1, fromW: -1, requeue: true})
	}
}

// revive brings a down place into the cluster at e.now: an absent place
// joining, or (rejoin) a flapped one recovering, whose outage re-homed its
// work (that was a crash, with re-execution) but whose link is
// re-established rather than evicted. Either way the place starts idle and
// empty, its workers acquire work by stealing, and new spawns may be homed
// there from this instant on.
func (e *engine) revive(p *simPlace, rejoin bool) {
	if !p.dead {
		return
	}
	p.dead = false
	p.draining = false
	p.active = false
	p.failedSweeps = 0
	if rejoin {
		e.ctrs.MembershipRejoins.Add(1)
		e.record(p.id, 0, obs.KindHeal, -1, int32(p.id), 0)
	} else {
		e.ctrs.MembershipJoins.Add(1)
		e.record(p.id, 0, obs.KindJoin, -1, 1, 0)
	}
	// Wake one worker so the place starts probing for surplus instead of
	// waiting for the next spawn to notice it.
	e.wakeFor(p, true)
}

// drainPlace starts a graceful departure: every queued-but-unstarted task
// is offloaded to survivors (counted as TasksOffloaded — the work never
// ran, so nothing is re-executed), in-flight tasks finish and report
// normally, and the place flips to dead once the last one completes.
func (e *engine) drainPlace(p *simPlace) {
	if p.dead || p.draining {
		return
	}
	p.draining = true
	p.active = false
	e.ctrs.MembershipDrains.Add(1)

	moved := e.takeQueued(p)
	e.record(p.id, 0, obs.KindDrain, -1, int32(len(moved)), 0)
	e.ctrs.TasksOffloaded.Add(int64(len(moved)))
	e.rehome(p, moved)
	if p.running == 0 {
		p.dead = true
	}
}

// findWork performs one Algorithm-1 sweep for w at e.now. On failure the
// worker goes dormant until the next wake.
func (e *engine) findWork(w *simWorker) {
	p := w.place
	if p.dead || p.draining {
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
			e.ctrs.LocalSteals.Add(1)
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
	// Nothing found: note the failed sweep and go dormant.
	e.ctrs.FailedSteals.Add(1)
	e.record(p.id, w.local, obs.KindStealFail, -1, 0, 0)
	p.failedSweeps++
	if p.failedSweeps >= sched.FailedStealQuiesceThreshold(e.cl.WorkersPerPlace) {
		p.active = false
	}
	if e.policy == sched.LifelineWS {
		e.registerLifelines(p)
	}
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
// it is down, nothing of its queue (under either protocol, which is the
// contention exhibit's model: every live victim costs a probe).
func (e *engine) Skip(victim int) bool { return e.down(victim) }

// Now and Wait keep the sweeping thief's clock: virtual time plus the
// delay its sweep has accumulated. Events are stamped at e.now, when the
// sweep runs.
func (e *engine) Now() int64    { return e.now + e.sweepDelay }
func (e *engine) Wait(ns int64) { e.sweepDelay += ns }
func (e *engine) Record(k obs.Kind, victim int, dur int64) {
	e.record(e.sweeper.place.id, e.sweeper.local, k, -1, int32(victim), dur)
}

// Steal is the hand-over and the landing of one delivered request: the
// probe round trip, a chunk off the victim's shared deque (steal-half and
// the multiplicity model under the receiver-initiated protocol, the best
// data fit under the data-aware DAG policy), the wait for the victim's
// deque lock and the payload transfer all delay the first task's start on
// the thief; the rest arrive at its place's shared deque at the same time.
func (e *engine) Steal(v, chunkSize int) (got, left int) {
	w := e.sweeper
	victim := e.places[v]
	e.sweepDelay += e.probeRTT
	if e.opts.ChunkOverride > 0 {
		chunkSize = e.opts.ChunkOverride
	}
	if e.thief.Receiver {
		// The round trip above is the request/donate exchange: the thief
		// posts into a victim worker's mailbox and the owner answers with
		// half its queue at its next task boundary.
		chunkSize = sched.StealHalf(victim.shared.Len())
	}
	var chunk []int
	if e.dag != nil && e.dag.pol == dag.PolicyDataAware && !e.thief.Receiver {
		// Data-aware steal: take the queued tasks whose inputs are
		// already resident at the thief (fewest fetch bytes first,
		// ties oldest-first) instead of blindly taking the oldest.
		chunk = victim.shared.StealBestAppend(e.stealBuf[:0], chunkSize, e.dagStealScore(w.place.id))
	} else {
		chunk = victim.shared.StealChunkAppend(e.stealBuf[:0], chunkSize)
	}
	e.stealBuf = chunk[:0]
	if e.thief.Receiver && len(chunk) > 0 {
		e.ctrs.Donations.Add(1)
		if w.rng.Intn(relaxedDupOneIn) == 0 {
			// Multiplicity: the donation's last task was concurrently
			// retaken at the victim — the thief's copy is a duplicate.
			// Dedup discards it on arrival (it is never executed
			// twice), but its transfer was paid for; the real task
			// stays with the victim.
			dup := chunk[len(chunk)-1]
			chunk = chunk[:len(chunk)-1]
			victim.shared.PushBack(dup)
			e.ctrs.DuplicateTakes.Add(1)
			bytes := e.g.Tasks[dup].MigBytes
			e.ctrs.BytesTransferred.Add(int64(bytes))
			e.sweepDelay += e.cl.Net.TransferNS(bytes)
		}
	}
	if len(chunk) == 0 {
		return 0, 0
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
	e.ctrs.BytesTransferred.Add(int64(bytes))
	e.record(w.place.id, w.local, obs.KindStealRemote, int32(chunk[0]), int32(v), e.sweepDelay)
	if len(chunk) > 1 {
		batch := append(e.getBatch(), chunk[1:]...)
		e.events.Push(e.now+e.sweepDelay, event{kind: evArrive, place: w.place.id, batch: batch})
	}
	e.start(w, chunk[0], e.sweepDelay)
	return len(chunk), victim.shared.Len()
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
// donation under the relaxed deques: one donated chunk in 64 hands its
// last task out twice. The draw comes from the thief's deterministic rng
// stream, so runs stay reproducible.
const relaxedDupOneIn = 64

// registerLifelines marks p on its lifeline neighbours (LifelineWS,
// sched.EachLifeline) so they push surplus work there.
func (e *engine) registerLifelines(p *simPlace) {
	sched.EachLifeline(p.id, len(e.places), e.down, func(q int) {
		neighbour := e.places[q]
		if !neighbour.lifelines[p.id] {
			neighbour.lifelines[p.id] = true
			e.ctrs.Messages.Add(1)
		}
		e.serveLifelines(neighbour)
	})
}

// serveLifelines pushes surplus work from p to registered waiters.
func (e *engine) serveLifelines(p *simPlace) {
	for q := range p.lifelines {
		if p.shared.Len() <= 1 {
			return
		}
		if !p.lifelines[q] {
			continue
		}
		if e.places[q].dead || e.places[q].draining {
			// A waiter that crashed or is departing: drop the edge.
			p.lifelines[q] = false
			continue
		}
		p.lifelines[q] = false
		if id, ok := p.shared.PopFront(); ok {
			p.queued--
			t := &e.g.Tasks[id]
			e.ctrs.Messages.Add(1)
			e.ctrs.BytesTransferred.Add(int64(t.MigBytes))
			e.ctrs.RemoteSteals.Add(1)
			arrive := e.now + e.cl.Net.TransferNS(t.MigBytes)
			e.events.Push(arrive, event{kind: evArrive, place: q, batch: append(e.getBatch(), id)})
		}
	}
}

// start begins executing task id on w after startDelay of acquisition
// latency, charging migration, cache, and communication costs.
func (e *engine) start(w *simWorker, id int, startDelay int64) {
	t := &e.g.Tasks[id]
	p := w.place
	w.busy = true
	w.curTask = id
	p.running++
	p.active = true
	p.failedSweeps = 0
	e.record(p.id, w.local, obs.KindTaskStart, int32(id), int32(e.resolvedHome[id]), 0)

	service := startDelay
	if e.policy == sched.DistWS || e.policy == sched.DistWSNS || e.policy == sched.Adaptive {
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
	// penalty accumulates the data-locality share of the service time —
	// remote-reference round trips and cache-miss stalls — which feeds
	// the adapt classifier's penalty-fraction criterion.
	var penalty int64
	if migrated {
		e.ctrs.TasksMigrated.Add(1)
		if t.MigMsgs > 0 {
			// Each remote reference is a round trip for cache-line-sized
			// payload; this is the dominant cost non-selective stealing
			// pays on locality-sensitive tasks.
			e.ctrs.Messages.Add(int64(t.MigMsgs))
			e.ctrs.RemoteDataAccess.Add(int64(t.MigMsgs))
			e.ctrs.BytesTransferred.Add(int64(t.MigMsgs * remoteRefBytes))
			refNS := int64(t.MigMsgs) * e.cl.Net.RoundTripNS(32, remoteRefBytes)
			service += refNS
			penalty += refNS
		}
	}
	if t.BaseMsgs > 0 {
		e.ctrs.Messages.Add(int64(t.BaseMsgs))
		e.ctrs.BytesTransferred.Add(int64(t.BaseBytes))
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
			e.ctrs.CacheRefs.Add(n)
			e.ctrs.CacheMisses.Add(n)
			service += n * missPenaltyNS
			penalty += n * missPenaltyNS
		default:
			blocks := t.Blocks
			if migrated {
				// A migrated flexible task carries its data: it pays one
				// cold pass at the thief (aliased blocks), then hits.
				blocks = appendAliasBlocks(e.aliasBuf[:0], t.Blocks, uint64(p.id))
				e.aliasBuf = blocks[:0]
			}
			for rep := 0; rep < reps; rep++ {
				hits, misses := p.cache.TouchAll(blocks)
				e.ctrs.CacheRefs.Add(int64(hits + misses))
				e.ctrs.CacheMisses.Add(int64(misses))
				service += int64(misses) * missPenaltyNS
				penalty += int64(misses) * missPenaltyNS
			}
		}
	}

	service += t.CostNS
	if e.ctrl != nil {
		// Feed the controller the task's service time net of acquisition
		// latency (isolating the execution-side cost) plus the measured
		// data-locality penalty the classifier attributes to migration.
		if flipped, cls := e.ctrl.ObserveExec(e.taskKind[id], migrated, service-startDelay, penalty); flipped {
			e.ctrs.Reclassifications.Add(1)
			e.record(p.id, w.local, obs.KindReclassify, int32(id), int32(cls), 0)
		}
	}
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
