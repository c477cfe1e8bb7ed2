package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/deque"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/task"
)

// activity is one schedulable unit of work — the X10 async.
type activity struct {
	body func(*Ctx)
	loc  task.Locality
	home int // programmer-specified place
	fin  *finish
	// bag marks a Bag run (see Bag): its items, not the activity, count
	// as spawned and executed tasks.
	bag bool
	// claimed is the dispatch-level dedup for the relaxed flexible queues
	// (multiplicity semantics): whichever taker wins this flag runs the
	// activity; every other take of the same activity is discarded.
	claimed atomic.Bool
	// ctx is the context run hands the body: it lives here so that an
	// activity is one allocation, not two.
	ctx Ctx
}

// place mirrors the paper's Fig. 2: several workers with private deques
// plus one shared deque for locality-flexible tasks. Its §VI-B status, its
// liveness (dead: crashed, not yet joined or drained; draining: departing)
// and its lifeline waiters are the embedded sched.Place.
type place struct {
	sched.Place
	id int
	rt *Runtime

	workers []*worker
	shared  deque.Shared[*activity]

	spawnSeq atomic.Uint64 // per-place spawn counter (DistWS-NS round robin)

	// executed counts activities completed here, for the fault plan's
	// AfterTasks crash trigger.
	executed atomic.Int64

	rrWorker atomic.Uint32 // round-robin target for externally spawned tasks
	// idlers counts this place's workers inside an idle stretch (see
	// worker.beginIdle); wake holds one token per worker a pusher or a
	// lifecycle change wants to sweep again.
	idlers atomic.Int32
	wake   chan struct{}

	// wg tracks this place's live worker goroutines so a heal/join can
	// wait for a crashed generation to fully exit before restarting —
	// worker structs (rng, deque) are reused across generations.
	wg sync.WaitGroup
}

func newPlace(rt *Runtime, id int) *place {
	p := &place{
		id:   id,
		rt:   rt,
		wake: make(chan struct{}, rt.cfg.Cluster.WorkersPerPlace),
	}
	p.workers = make([]*worker, rt.cfg.Cluster.WorkersPerPlace)
	for i := range p.workers {
		w := &worker{place: p, local: i}
		w.thief = sched.Thief{
			Policy:    rt.cfg.Policy,
			Self:      id,
			Places:    rt.cfg.Cluster.Places,
			Rng:       rand.New(rand.NewSource(rt.cfg.Seed + int64(id*1000+i))),
			TimeoutNS: rt.stealTimeout.Nanoseconds(),
			Inj:       rt.inj,
			Ctrs:      &rt.counters,
		}
		if rt.relaxed {
			// The relaxed kind is Fig. 2 per worker: a strict LIFO
			// private deque (the relaxed queue is FIFO at both ends, and
			// sensitive spawns must run depth-first) beside a fence-free
			// FIFO queue of flexible tasks; the place's shared deque
			// survives only as a cold-path inbox for cross-place arrivals.
			w.priv = deque.NewChaseLev[*activity]()
			w.flex = deque.NewRelaxed[*activity]()
		} else {
			w.priv = deque.New[*activity](rt.cfg.Deque)
		}
		w.stats.idleSince.Store(rt.stamp()) // idle until loop starts it
		p.workers[i] = w
	}
	return p
}

// queueLen reports how many activities sit in the place's queues. Nothing
// mirrors the queues: the one caller that needs the figure (DrainPlace's
// wait) reads it from the queues themselves, so the spawn and take paths
// pay nothing for it and duplicate takes under the relaxed kind cannot make
// it drift.
func (p *place) queueLen() int {
	n := p.shared.Len()
	for _, w := range p.workers {
		n += w.priv.Len() + w.inbox.Len()
		if w.flex != nil {
			n += w.flex.Len()
		}
	}
	return n
}

// offered reports how much queued work the place offers a remote thief:
// the shared deque, or under the relaxed kind the workers' flexible queues
// (the shared deque is then only the cold-path inbox for arrivals).
func (p *place) offered() int {
	if !p.rt.relaxed {
		return p.shared.Len()
	}
	n := 0
	for _, w := range p.workers {
		n += w.flex.Len()
	}
	return n
}

func (p *place) startWorkers() {
	rt := p.rt
	for _, w := range p.workers {
		rt.workerWG.Add(1)
		p.wg.Add(1)
		go func(w *worker) {
			defer p.wg.Done()
			defer rt.workerWG.Done()
			w.closeIdleStamp() // the time before this start was idle
			w.loop(nil)
			w.stats.idleSince.Store(rt.stamp()) // stopped is idle, until a revive
		}(w)
	}
}

// load captures the Algorithm-1 inputs for task mapping. Size leaves the
// queued activities out: the thread ceiling here is the worker count, so
// Algorithm 1's third clause (Size < MaxThreads) can hold only while
// running < WorkersPerPlace, which is its second clause (Spares > 0), and
// counting the queues could never change a mapping. (Not so in the
// simulator, where wakes already committed to queued work are taken out
// of Spares and the two clauses separate.)
func (p *place) load() sched.PlaceLoad {
	workers := p.rt.cfg.Cluster.WorkersPerPlace
	running := p.running()
	return sched.PlaceLoad{
		Active:     p.Active(),
		Spares:     workers - running,
		Size:       running,
		MaxThreads: workers,
	}
}

// running is how many activities are executing here: the sum of the
// workers' nesting depths (an activity helping inside Finish runs others
// inside its own run).
func (p *place) running() int {
	n := 0
	for _, w := range p.workers {
		n += int(w.stats.depth.Load())
	}
	return n
}

// mapTarget is the Algorithm-1 mapping of a at this place. Only what
// sched.MapTask reads is gathered, because gathering is what costs: the
// load (a read of every co-located worker's line) for a flexible task
// under DistWS, the spawn counter (a shared RMW) under
// DistWS-NS. TestMapTargetSkipsOnlyWhatMapTaskIgnores holds the two
// conditions to sched.
func (p *place) mapTarget(a *activity) sched.Target {
	policy := p.rt.cfg.Policy
	class := a.loc.Class
	var load sched.PlaceLoad
	if readsLoad(policy, class) {
		load = p.load()
	}
	var seq uint64
	if policy == sched.DistWSNS {
		seq = p.spawnSeq.Add(1)
	}
	return sched.MapTask(policy, class, load, seq)
}

func readsLoad(policy sched.Kind, class task.Class) bool {
	return policy == sched.DistWS && class != task.Sensitive
}

// enqueue places a freshly mapped activity in the chosen deque flavour.
// spawner, when non-nil and co-located, receives private-target tasks in
// its own deque (X10 help-first: spawned work stays with the spawner until
// stolen).
func (p *place) enqueue(a *activity, target sched.Target, spawner *worker) {
	stealable := false // pushed where a remote thief may take it from
	if target == sched.TargetShared {
		if w := spawner; p.rt.relaxed && w != nil && w.place == p {
			// The relaxed kind: the spawning owner keeps flexible work in
			// its own fence-free queue, where co-located and remote
			// thieves alike take it.
			w.flex.Push(a)
			stealable = true
		} else {
			p.shared.Push(a)
			p.rt.life.Serve(p.id)
			stealable = !p.rt.relaxed
		}
	} else if w := spawner; w != nil && w.place == p {
		// The spawning worker pushes onto its own private deque — the
		// only caller the lock-free kinds' owner-only Push contract
		// admits.
		w.priv.Push(a)
	} else {
		// External submit, cross-place spawn, or re-homed orphan: a
		// foreign Push racing the owner on a ChaseLev priv deque races on
		// bottom and can drop or duplicate tasks, so foreign
		// affinitized arrivals go through a round-robin-chosen worker's
		// mutex-guarded inbox instead.
		w := p.workers[int(p.rrWorker.Add(1))%len(p.workers)]
		w.inbox.Push(a)
	}
	p.assigned(stealable)
}

// enqueueStolen inserts tasks obtained by a distributed steal into this
// (thief) place's shared deque so co-located workers can pick them up
// without their own distributed steal (§V-B3).
func (p *place) enqueueStolen(chunk []*activity) {
	p.rt.record(p.id, 0, obs.KindArrive, -1, int32(len(chunk)), 0)
	for _, a := range chunk {
		p.shared.Push(a)
	}
	p.assigned(!p.rt.relaxed)
}

// assigned follows every push into one of the place's queues: assigning
// work (re)activates the place (§VI-B) and wakes idle workers. stealable
// says the push went where a remote thief may take it from (the shared
// deque, or a flexible queue under the relaxed kind). On the common path,
// with every worker busy, it writes nothing: the status words are stored
// only on change and the wake is gated on the runtime-wide count of idle
// workers.
//
// A push racing the place's crash or drain may land after the respective
// queue sweep: both paths set their flag before sweeping, so re-checking
// here and re-homing again guarantees the activity is not stranded.
func (p *place) assigned(stealable bool) {
	p.Assigned()
	if p.rt.idlers.Load() != 0 {
		p.wakeFor(stealable)
	}
	if p.Down() {
		p.rt.life.Rehome(p.id, p.Dead())
	}
}

// wakeFor wakes whoever should sweep after a push at p: the place's own
// idle workers if it has any, else, for a stealable push (only a policy
// with sched.RemoteStealing maps a task to those queues), at most one idle
// worker at another live place, which then steals it instead of learning
// of it from its idlePoll timer. A place whose wake buffer is full is
// being woken already, so the next one is tried.
//
// This is the pusher's half of the parking protocol; worker.beginIdle is
// the other half.
func (p *place) wakeFor(stealable bool) {
	if p.idlers.Load() != 0 {
		p.wakeAll()
		return
	}
	if !stealable {
		return
	}
	places := p.rt.places
	for off := 1; off < len(places); off++ {
		q := places[(p.id+off)%len(places)]
		if q.idlers.Load() == 0 || q.Down() {
			continue
		}
		select {
		case q.wake <- struct{}{}:
			return
		default:
		}
	}
}

// wakeAll nudges every idle worker at the place.
func (p *place) wakeAll() {
	for i := 0; i < cap(p.wake); i++ {
		select {
		case p.wake <- struct{}{}:
		default:
			return
		}
	}
}

// worker is one scheduling thread within a place. priv is the
// private-deque discipline it schedules from — owner LIFO push/pop plus a
// FIFO-end steal for co-located thieves, each task handed out exactly
// once — behind deque.WorkQueue: Config.Deque selects the mutex-guarded
// deque.Private (default, the observable-lock design the paper reasons
// about) or the lock-free deque.ChaseLev, which bounds the interruption a
// steal inflicts on the victim (§V) and is also what deque.KindRelaxed
// puts here, beside flex.
type worker struct {
	place *place
	local int // index within the place
	priv  deque.WorkQueue[*activity]
	// inbox receives affinitized tasks pushed by anyone other than this
	// worker's own goroutine — external submits, cross-place spawns,
	// re-homed orphans. Push/Pop on the lock-free priv kinds are
	// owner-only, so foreign enqueues must not touch priv; the inbox is
	// mutex-guarded and safe from any goroutine. The owner drains it once
	// its own priv is empty, and co-located thieves may steal from it.
	inbox deque.Private[*activity]
	// thief runs this worker's remote steals (sched.Thief.Sweep, with the
	// worker as its sched.Engine); loot is the task the sweep in progress
	// took to run now, and sweepStart when that sweep began, for the trace.
	thief      sched.Thief
	loot       *activity
	sweepStart int64

	// flex is this worker's fence-free queue of locality-flexible tasks
	// (relaxed kind only, nil otherwise): the owner pushes its flexible
	// spawns here instead of the place's shared deque, and owner,
	// co-located and remote thieves all take its oldest task first, as
	// Poll does from the shared deque. It is the only queue that can hand
	// a task out twice.
	flex *deque.Relaxed[*activity]
	// idleTimer bounds loop's idle block (idlePoll); one per worker, made
	// on first use and re-armed by idleWait, so an idle block allocates
	// nothing.
	idleTimer *time.Timer

	stats workerStats
}

// workerStats is the bookkeeping a worker does per task. Only the owning
// worker writes it (atomically, for the snapshot readers: Runtime.Metrics,
// Runtime.Utilization, place.load), and the padding keeps it off every
// line another worker writes, so the writes never leave the owner's cache.
type workerStats struct {
	_ [64]byte

	spawned  atomic.Int64 // activities this worker spawned
	executed atomic.Int64 // activities this worker ran to completion
	depth    atomic.Int32 // activities executing on this worker now (nested by help-first Finish)

	// Utilisation is kept from the idle side. idleSince is the runtime
	// clock (Runtime.stamp, never 0) at which the current idle stretch
	// began, 0 while the worker is busy; idleNS sums the closed stretches.
	// A worker is idle from a failed sweep until it next finds work, and
	// while it is not started (before a join, after a crash or Shutdown).
	idleSince atomic.Int64
	idleNS    atomic.Int64

	_ [64]byte
}

// beginIdle opens an idle stretch after a failed sweep: it stamps the
// clock for Utilization and publishes the worker in the idle counts that
// gate every pusher's wake. The caller must sweep once more before it
// blocks: a push that loaded the counts before this publication sent no
// token, but it completed before that load, so the second sweep sees it
// (both sides are sequentially consistent atomics around the queue
// operation). Every later push sees the count and leaves a token in
// place.wake. idlePoll bounds what a bug here could cost.
func (w *worker) beginIdle() {
	rt := w.place.rt
	w.stats.idleSince.Store(rt.stamp())
	w.place.idlers.Add(1)
	rt.idlers.Add(1)
}

// endIdle closes the stretch beginIdle opened, if one is open: the worker
// found work (run calls it), its finish completed, or it is exiting.
func (w *worker) endIdle() {
	if !w.idle() {
		return
	}
	w.place.rt.idlers.Add(-1)
	w.place.idlers.Add(-1)
	w.closeIdleStamp()
}

// closeIdleStamp moves the open idle stretch into idleNS. idleSince is
// cleared first and Utilization reads the two in the opposite order, so a
// concurrent reader may miss a stretch but never counts one twice.
func (w *worker) closeIdleStamp() {
	st := &w.stats
	since := st.idleSince.Load()
	st.idleSince.Store(0)
	st.idleNS.Add(w.place.rt.nowNS() - since)
}

// idle reports whether the worker is inside an idle stretch.
func (w *worker) idle() bool { return w.stats.idleSince.Load() != 0 }

// claim marks a as dispatched exactly once. A relaxed flexible queue may
// hand a task out twice (multiplicity semantics), and a remote steal or a
// re-homing can carry the second copy into a flexible queue, a shared
// deque or an inbox; the loser of the claim discards its copy. Private
// deques are strict and are never claim-checked, and under the strict
// kinds every queue is, so the check short-circuits to true.
func (w *worker) claim(a *activity) bool {
	rt := w.place.rt
	if !rt.relaxed {
		return true
	}
	if a.claimed.CompareAndSwap(false, true) {
		return true
	}
	rt.counters.DuplicateTakes.Add(1)
	rt.record(w.place.id, w.local, obs.KindDupTake, -1, int32(w.place.id), 0)
	return false
}

// loop is Algorithm 1 lines 9–29 for one worker. At the top of the
// worker's goroutine (fin nil) it runs until the runtime shuts down or the
// place fail-stops (fail-stop lands at the next scheduling point); inside
// Finish it helps (X10 help-first) until fin completes or the runtime
// shuts down. A fruitless sweep is the same in both: sched's failed-sweep
// tail (§VI-B status, lifelines), then idling.
//
// An idle worker is woken, not polling: the first failed sweep opens an
// idle stretch (beginIdle), the next sweep is the protocol's re-check, and
// only then does the worker wait for its place's wake tokens: polling them
// (spin) until the stretch is idleSpin old, then blocking on them; the
// idlePoll timer is the bound on a missed wake, not the way work is found.
// A shutdown releases a help-wait too: pending activities in the scope are
// abandoned (the documented Shutdown contract), which keeps a worker
// parked inside a nested finish from deadlocking ShutdownContext.
func (w *worker) loop(fin *finish) {
	p, rt := w.place, w.place.rt
	var done <-chan struct{}
	for !rt.shutdown.Load() {
		if fin == nil && p.Dead() || fin != nil && fin.isDone() {
			break
		}
		a, how := w.findWork()
		if a != nil {
			w.run(a, how)
			continue
		}
		rt.life.FailedSweep(p.id, w.local)
		if !w.idle() {
			w.beginIdle()
			continue
		}
		if w.spin(fin) {
			continue
		}
		if fin != nil {
			done = fin.wait()
		}
		select {
		case <-p.wake:
		case <-done:
		case <-rt.stopCh:
		case <-w.idleWait(rt.idlePoll):
		}
	}
	w.endIdle()
}

// spin polls what loop's block waits on, a wake token, the runtime's stop
// and, in a help-wait, fin's completion, without blocking and yielding the
// processor between polls, until the idle stretch is idleSpin old. It
// reports whether one of them came; false means the window has passed and
// the caller should block. It polls nothing a pusher does not already
// signal: no queue, no remote place. So it finds no work the block would
// miss, a lost wake stays lost, and a help-wait whose finish completes in
// the window never makes its done channel.
func (w *worker) spin(fin *finish) bool {
	p, rt := w.place, w.place.rt
	for rt.nowNS()-w.stats.idleSince.Load() < int64(idleSpin) {
		select {
		case <-p.wake:
			return true
		case <-rt.stopCh:
			return true
		default:
		}
		if fin != nil && fin.isDone() {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// idleWait arms the worker's idle timer for d and returns its channel. A
// timer that fired unread since its last arming is drained first, so the
// channel never delivers a stale tick. Only the worker's goroutine calls
// it (loop nests inside Finish on that same goroutine).
func (w *worker) idleWait(d time.Duration) <-chan time.Time {
	if w.idleTimer == nil {
		w.idleTimer = time.NewTimer(d)
		return w.idleTimer.C
	}
	if !w.idleTimer.Stop() {
		select {
		case <-w.idleTimer.C:
		default:
		}
	}
	w.idleTimer.Reset(d)
	return w.idleTimer.C
}

// stealKind says how a task was obtained, for accounting.
type stealKind uint8

const (
	tookOwn stealKind = iota
	tookLocalSteal
	tookSharedLocal
	tookRemote
)

// findWork performs one sweep of the Algorithm-1 work-finding order.
func (w *worker) findWork() (*activity, stealKind) {
	p := w.place
	// A dead place schedules nothing: its queues were drained by the
	// crash and survivors own the work now. A draining place starts
	// nothing new — its queue was offloaded and only in-flight
	// activities may finish.
	if p.Down() {
		return nil, tookOwn
	}
	relaxed := p.rt.relaxed
	// 1. Own private deque (line 9): strict on every kind, newest first.
	if a, ok := w.priv.Pop(); ok {
		return a, tookOwn
	}
	// 1a. Own inbox: foreign affinitized arrivals (FIFO — oldest first).
	// This and the other take loops skip claim-losing duplicates that
	// came out of a relaxed flexible queue; under the strict kinds claim is
	// always true and each loop runs at most one full iteration.
	for {
		a, ok := w.inbox.Steal()
		if !ok {
			break
		}
		if w.claim(a) {
			return a, tookOwn
		}
	}
	// 1b. Own flexible queue (relaxed kind), oldest first.
	if relaxed {
		for {
			a, ok := w.flex.Steal()
			if !ok {
				break
			}
			if w.claim(a) {
				return a, tookOwn
			}
		}
	}
	// 2. Steal from co-located workers' private deques, inboxes and, under
	// the relaxed kind, flexible queues (line 12). Affinity is place-level,
	// so a peer's inbox is fair game for a co-located thief.
	for off := 1; off < len(p.workers); off++ {
		peer := p.workers[(w.local+off)%len(p.workers)]
		if a, ok := peer.priv.Steal(); ok {
			p.rt.record(p.id, w.local, obs.KindStealLocal, -1, int32(peer.local), 0)
			return a, tookLocalSteal
		}
		if a, ok := peer.inbox.Steal(); ok && w.claim(a) {
			p.rt.record(p.id, w.local, obs.KindStealLocal, -1, int32(peer.local), 0)
			return a, tookLocalSteal
		}
		if relaxed {
			if a, ok := peer.flex.Steal(); ok && w.claim(a) {
				p.rt.record(p.id, w.local, obs.KindStealLocal, -1, int32(peer.local), 0)
				return a, tookLocalSteal
			}
		}
	}
	// 3. Local shared deque (line 13) — under the relaxed kind the cold-path
	// inbox holding cross-place arrivals.
	for {
		a, ok := p.shared.Poll()
		if !ok {
			break
		}
		if w.claim(a) {
			return a, tookSharedLocal
		}
	}
	// 4. Distributed steal (lines 14–29), policy permitting.
	if sched.RemoteStealing(w.place.rt.cfg.Policy) {
		if a := w.stealRemote(); a != nil {
			return a, tookRemote
		}
	}
	return nil, tookOwn
}

// stealRemote is the distributed steal (Algorithm 1 lines 14–29): one
// sched.Thief.Sweep, with this worker as its sched.Engine. It returns the
// task to run now, if the sweep found one; the rest of what was stolen is
// already queued at the thief's place.
func (w *worker) stealRemote() *activity {
	if w.place.rt.rec != nil {
		w.sweepStart = w.Now()
	}
	w.loot = nil
	w.thief.Sweep(w)
	return w.loot
}

// Skip is what a thief sees of a victim without a message: its liveness
// (and the runtime's own). A thief cannot see the victim's queues without
// the probe, so it pays the message pair (the paper's Table III counts
// them).
func (w *worker) Skip(victim int) bool {
	rt := w.place.rt
	return rt.life.Down(victim) || rt.shutdown.Load()
}

func (w *worker) Now() int64    { return w.place.rt.nowNS() }
func (w *worker) Wait(ns int64) { time.Sleep(time.Duration(ns)) }
func (w *worker) Record(k obs.Kind, victim int, dur int64) {
	w.place.rt.record(w.place.id, w.local, k, -1, int32(victim), dur)
}

// Steal is the hand-over and the landing of one delivered request: take a
// chunk from the victim's shared deque, or under the relaxed kind half of
// one of its workers' flexible queues; keep the first claimable task in
// w.loot to run now and queue the rest where co-located workers can take
// them without a distributed steal of their own (§V-B3).
func (w *worker) Steal(victim, chunkSize int) int {
	p := w.place
	rt := p.rt
	from := rt.places[victim]
	var chunk []*activity
	if rt.relaxed {
		chunk = from.stealFlex()
	} else {
		chunk = from.shared.StealChunk(chunkSize)
	}
	var bytes int64
	for _, a := range chunk {
		bytes += int64(a.loc.MigrationBytes)
	}
	// chunk[0] under the strict kinds, while a relaxed take may lead with
	// duplicates; one made only of them is no loot at all.
	for w.loot == nil && len(chunk) > 0 {
		if w.claim(chunk[0]) {
			w.loot = chunk[0]
		}
		chunk = chunk[1:]
	}
	if w.loot == nil {
		return 0
	}
	rt.counters.BytesTransferred.Add(bytes)
	if rt.rec != nil {
		w.Record(obs.KindStealRemote, victim, w.Now()-w.sweepStart)
	}
	switch {
	case len(chunk) == 0:
	case rt.relaxed:
		// The thief's own flexible queue: an owner push, no shared
		// structure involved.
		for _, a := range chunk {
			w.flex.Push(a)
		}
		rt.record(p.id, w.local, obs.KindArrive, -1, int32(len(chunk)), 0)
		p.assigned(true)
	default:
		p.enqueueStolen(chunk)
	}
	return 1 + len(chunk)
}

// stealFlex is a remote thief's take under the relaxed kind: steal-half
// (sched.StealHalf) of the first non-empty flexible queue, starting at the
// place's round-robin worker, with the same Relaxed.Steal a co-located
// thief makes. A take racing the owner or another thief may return a task
// that is taken twice; the claim check discards the loser's copy.
func (p *place) stealFlex() []*activity {
	var chunk []*activity
	start := int(p.rrWorker.Add(1))
	for i := range p.workers {
		w := p.workers[(start+i)%len(p.workers)]
		for n := sched.StealHalf(w.flex.Len()); n > 0; n-- {
			a, ok := w.flex.Steal()
			if !ok {
				break
			}
			chunk = append(chunk, a)
		}
		if len(chunk) > 0 {
			break
		}
	}
	return chunk
}

// run executes one activity and performs the paper's accounting:
// migration effects for Tables II–III, and, for the trace, the service
// time. What it writes per task is the worker's own (stats, the
// activity); the shared counters below move only when a task was stolen or
// ran off-home.
func (w *worker) run(a *activity, how stealKind) {
	rt := w.place.rt
	p := w.place
	w.endIdle()
	w.stats.depth.Add(1)
	p.Assigned()

	// Only genuine steals count (Fig. 3): taking a task from a co-located
	// worker's private deque. Polling the own place's shared deque is the
	// designated dequeue path for flexible tasks, not a steal.
	if how == tookLocalSteal {
		rt.counters.LocalSteals.Add(1)
	}
	if p.id != a.home {
		rt.counters.TasksMigrated.Add(1)
	}

	rt.record(p.id, w.local, obs.KindTaskStart, -1, int32(a.home), 0)
	// The service time's one reader is the trace; without it the clock
	// is not read.
	var start time.Time
	if rt.rec != nil {
		start = time.Now()
	}
	a.ctx = Ctx{rt: rt, placeID: p.id, worker: w, fin: a.fin}
	defer func() {
		if v := recover(); v != nil {
			a.fin.fail(v)
		}
		// Accounted before the finish is released: once Run returns,
		// every activity it waited for reads as executed.
		var elapsed int64
		if rt.rec != nil {
			elapsed = time.Since(start).Nanoseconds()
		}
		rt.record(p.id, w.local, obs.KindTaskEnd, -1, 0, elapsed)
		if !a.bag {
			w.stats.executed.Add(1)
		}
		w.stats.depth.Add(-1)
		// Fault plan: fail-stop this place once it has executed its
		// quota, before the finish is released, so a Run that waited
		// for the quota's last task returns with the crash fired.
		if n, ok := rt.inj.CrashAfterTasks(p.id); ok && p.executed.Add(1) >= n {
			rt.crashPlace(p)
		}
		a.fin.done()
	}()
	a.body(&a.ctx)
}
