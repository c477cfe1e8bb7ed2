package core

import (
	"math/rand"
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
	// kind is the adapt controller's interned id for this activity's
	// locality signature (adaptive policy only; see Runtime.mapClass).
	kind     int32
	interned bool
	// claimed is the dispatch-level dedup for the relaxed flexible queues
	// (multiplicity semantics): whichever taker wins this flag runs the
	// activity; every other take of the same activity is discarded.
	claimed atomic.Bool
	// ctx is the context run hands the body: it lives here so that an
	// activity is one allocation, not two.
	ctx Ctx
}

// place mirrors the paper's Fig. 2: several workers with private deques
// plus one shared deque for locality-flexible tasks, and the place-local
// status object of §VI-B.
type place struct {
	id int
	rt *Runtime

	workers []*worker
	shared  deque.Shared[*activity]

	spawnSeq atomic.Uint64 // per-place spawn counter (DistWS-NS round robin)

	// active is the §VI-B place status bit: set when an activity is
	// assigned, cleared after n successive failed steal sweeps.
	active       atomic.Bool
	failedSweeps atomic.Int32

	// dead marks a fail-stopped place (fault injection): workers exit,
	// thieves exclude it, and queued work is re-homed to survivors.
	dead atomic.Bool
	// draining marks a place departing gracefully (Runtime.DrainPlace):
	// it refuses new steals and spawns re-home, but in-flight activities
	// complete normally; once they have, the place flips to dead.
	draining atomic.Bool
	// executed counts activities completed here, for the fault plan's
	// AfterTasks crash trigger.
	executed atomic.Int64

	// lifelineWaiters holds place ids registered on this place's incoming
	// lifelines (LifelineWS only); a bit set per place.
	lifelineWaiters []atomic.Bool

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
		id:              id,
		rt:              rt,
		lifelineWaiters: make([]atomic.Bool, rt.cfg.Cluster.Places),
		wake:            make(chan struct{}, rt.cfg.Cluster.WorkersPerPlace),
	}
	p.workers = make([]*worker, rt.cfg.Cluster.WorkersPerPlace)
	for i := range p.workers {
		w := &worker{place: p, local: i}
		w.thief = sched.Thief{
			Policy:    rt.cfg.Policy,
			Self:      id,
			Places:    rt.cfg.Cluster.Places,
			Rng:       rand.New(rand.NewSource(rt.cfg.Seed + int64(id*1000+i))),
			Receiver:  rt.receiver,
			TimeoutNS: rt.cfg.StealTimeout.Nanoseconds(),
			Ctrl:      rt.ctrl,
			Inj:       rt.inj,
			Ctrs:      &rt.counters,
		}
		if rt.receiver {
			// Receiver-initiated mode is Fig. 2 per worker: a strict LIFO
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
// mirrors the queues: the few callers that need the figure (a drain, its
// trace event) read it from the queues themselves, so the spawn and take
// paths pay nothing for it and duplicate takes under the relaxed kind
// cannot make it drift.
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

// donatable reports how much queued work the place could hand a remote
// thief: the shared deque under the sender-initiated protocol, the
// workers' flexible queues under the receiver-initiated one (where the
// shared deque is only the cold-path inbox for arrivals).
func (p *place) donatable() int {
	if !p.rt.receiver {
		return p.shared.Len()
	}
	n := 0
	for _, w := range p.workers {
		n += w.flex.Len()
	}
	return n
}

func (p *place) startWorkers() {
	for _, w := range p.workers {
		p.rt.workerWG.Add(1)
		p.wg.Add(1)
		go func(w *worker) {
			defer p.wg.Done()
			w.loop()
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
		Active:     p.active.Load(),
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
// under DistWS or Adaptive, the spawn counter (a shared RMW) under
// DistWS-NS. TestMapTargetSkipsOnlyWhatMapTaskIgnores holds the two
// conditions to sched.
func (p *place) mapTarget(a *activity) sched.Target {
	policy := p.rt.cfg.Policy
	class := p.rt.mapClass(a)
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
	return (policy == sched.DistWS || policy == sched.Adaptive) && class != task.Sensitive
}

// enqueue places a freshly mapped activity in the chosen deque flavour.
// spawner, when non-nil and co-located, receives private-target tasks in
// its own deque (X10 help-first: spawned work stays with the spawner until
// stolen).
func (p *place) enqueue(a *activity, target sched.Target, spawner *worker) {
	stealable := false // pushed where a remote thief may take it from
	if target == sched.TargetShared {
		if w := spawner; p.rt.receiver && w != nil && w.place == p {
			// Receiver-initiated mode, spawn boundary: the spawning owner
			// keeps flexible work in its own fence-free queue and serves
			// any parked steal request — this is the only point where a
			// busy owner communicates with thieves.
			w.flex.Push(a)
			w.serveMail()
			stealable = true
		} else {
			p.shared.Push(a)
			p.serveLifelines()
			stealable = !p.rt.receiver
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
	p.assigned(!p.rt.receiver)
}

// assigned follows every push into one of the place's queues: assigning
// work (re)activates the place (§VI-B) and wakes idle workers. stealable
// says the push went where a remote thief may take it from (the shared
// deque, or a flexible queue in receiver mode). On the common path, with
// every worker busy, it writes nothing: the status words are stored only
// on change and the wake is gated on the runtime-wide count of idle
// workers.
//
// A push racing the place's crash or drain may land after the respective
// queue sweep: both paths set their flag before sweeping, so re-checking
// here and re-sweeping guarantees the activity is not stranded.
func (p *place) assigned(stealable bool) {
	p.markActive()
	if p.rt.idlers.Load() != 0 {
		p.wakeFor(stealable)
	}
	if p.dead.Load() {
		p.rt.rescue(p)
	} else if p.draining.Load() {
		p.rt.offload(p)
	}
}

// markActive sets the §VI-B status bit and clears the failed-sweep run,
// storing only on change so that a busy place's status line stays shared.
func (p *place) markActive() {
	if !p.active.Load() {
		p.active.Store(true)
	}
	if p.failedSweeps.Load() != 0 {
		p.failedSweeps.Store(0)
	}
}

// wakeFor wakes whoever should sweep after a push at p: the place's own
// idle workers if it has any, else, for a stealable push (only a policy
// with sched.RemoteStealing maps a task to those queues), at most one idle
// worker at another live place, which then steals it instead of learning
// of it from its IdlePoll timer. A place whose wake buffer is full is
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
		if q.idlers.Load() == 0 || q.dead.Load() || q.draining.Load() {
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

// serveLifelines pushes surplus shared-deque work to places that have
// registered on this place's lifelines (LifelineWS only). Waiters that
// crashed after registering are dropped rather than served.
func (p *place) serveLifelines() {
	if p.rt.cfg.Policy != sched.LifelineWS {
		return
	}
	for q := range p.lifelineWaiters {
		if p.shared.Len() <= 1 {
			return
		}
		if !p.lifelineWaiters[q].Swap(false) {
			continue
		}
		if p.rt.places[q].dead.Load() || p.rt.places[q].draining.Load() {
			continue
		}
		if a, ok := p.shared.Poll(); ok {
			p.rt.counters.Messages.Add(1)
			p.rt.counters.BytesTransferred.Add(int64(a.loc.MigrationBytes))
			p.rt.counters.RemoteSteals.Add(1) // lifeline push counts as a balanced transfer
			p.rt.places[q].enqueueStolen([]*activity{a})
		}
	}
}

// noteFailedSweep records one fully failed work-finding sweep; after n
// consecutive failures (n = workers per place) the place marks itself
// inactive (§VI-B).
func (p *place) noteFailedSweep() {
	n := p.failedSweeps.Add(1)
	if int(n) >= sched.FailedStealQuiesceThreshold(p.rt.cfg.Cluster.WorkersPerPlace) {
		p.active.Store(false)
	}
}

// donateReq is one receiver-initiated steal request parked in a victim
// worker's mailbox. The reply channel is buffered so the donor's send
// never blocks; an empty donation tells the thief to move on.
type donateReq struct {
	reply chan []*activity
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
	// (receiver-initiated mode only, nil otherwise): the owner pushes its
	// flexible spawns here instead of the place's shared deque, and owner,
	// co-located thieves and donations to remote thieves all take its
	// oldest task first, as Poll does from the shared deque. It is the
	// only queue that can hand a task out twice.
	flex *deque.Relaxed[*activity]
	// mail is the worker's steal-request mailbox: an idle remote thief
	// CASes a request in; the owner answers at its next task-spawn or
	// task-completion boundary. At most one request parks at a time.
	mail atomic.Pointer[donateReq]

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
// place.wake. Config.IdlePoll bounds what a bug here could cost.
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
// hand a task out twice (multiplicity semantics), and a donation, a rescue
// or an offload can carry the second copy into a shared deque or an inbox;
// the loser of the claim discards its copy. Private deques are strict and
// are never claim-checked, and outside receiver mode every queue is, so the
// check short-circuits to true.
func (w *worker) claim(a *activity) bool {
	rt := w.place.rt
	if !rt.receiver {
		return true
	}
	if a.claimed.CompareAndSwap(false, true) {
		return true
	}
	rt.counters.DuplicateTakes.Add(1)
	rt.record(w.place.id, w.local, obs.KindDupTake, -1, int32(w.place.id), 0)
	return false
}

// serveMail answers a parked steal request by donating half of this
// worker's flexible queue (WSPDR-style steal-half). It runs at the
// receiver-initiated protocol's communication points — task-spawn and
// task-completion boundaries — so a busy owner is never interrupted
// mid-task. An owner with nothing to give replies with an empty donation
// so the thief moves on instead of waiting out its timeout.
func (w *worker) serveMail() {
	if w.mail.Load() == nil {
		return // hot path: one atomic load when no request is parked
	}
	req := w.mail.Swap(nil)
	if req == nil {
		return
	}
	rt := w.place.rt
	var chunk []*activity
	for n := sched.StealHalf(w.flex.Len()); n > 0; n-- {
		a, ok := w.flex.Steal()
		if !ok {
			break
		}
		chunk = append(chunk, a)
	}
	if len(chunk) > 0 {
		rt.counters.Donations.Add(1)
		rt.record(w.place.id, w.local, obs.KindDonate, -1, int32(len(chunk)), 0)
	}
	req.reply <- chunk
}

// loop is Algorithm 1 lines 9–29. A worker whose place fail-stops exits
// the loop: the crash model is fail-stop at the next scheduling point.
//
// An idle worker is woken, not polling: the first failed sweep opens an
// idle stretch (beginIdle), the next sweep is the protocol's re-check, and
// only then does the worker block, on its place's wake tokens; the
// IdlePoll timer is the bound on a missed wake, not the way work is found.
func (w *worker) loop() {
	rt := w.place.rt
	defer rt.workerWG.Done()
	w.closeIdleStamp() // the time before this start was idle
	for !rt.shutdown.Load() && !w.place.dead.Load() {
		a, how := w.findWork()
		if a != nil {
			w.run(a, how)
			continue
		}
		w.place.noteFailedSweep()
		rt.counters.FailedSteals.Add(1)
		rt.record(w.place.id, w.local, obs.KindStealFail, -1, 0, 0)
		if rt.cfg.Policy == sched.LifelineWS {
			w.registerLifelines()
		}
		if !w.idle() {
			w.beginIdle()
			continue
		}
		select {
		case <-w.place.wake:
		case <-rt.stopCh:
		case <-time.After(rt.cfg.IdlePoll):
		}
	}
	w.endIdle()
	w.stats.idleSince.Store(rt.stamp()) // stopped is idle, until a revive
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
	if p.dead.Load() || p.draining.Load() {
		return nil, tookOwn
	}
	rcv := p.rt.receiver
	if rcv {
		// Task-completion boundary: serve a parked steal request before
		// looking for own work.
		w.serveMail()
	}
	// 1. Own private deque (line 9): strict on every kind, newest first.
	if a, ok := w.priv.Pop(); ok {
		return a, tookOwn
	}
	// 1a. Own inbox: foreign affinitized arrivals (FIFO — oldest first).
	// This and the other take loops skip claim-losing duplicates that
	// came out of a relaxed flexible queue; outside receiver mode claim is
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
	// 1b. Own flexible queue (receiver-initiated mode), oldest first.
	if rcv {
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
	// 2. Steal from co-located workers' private deques, inboxes and, in
	// receiver mode, flexible queues (line 12). Affinity is place-level,
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
		if rcv {
			if a, ok := peer.flex.Steal(); ok && w.claim(a) {
				p.rt.record(p.id, w.local, obs.KindStealLocal, -1, int32(peer.local), 0)
				return a, tookLocalSteal
			}
		}
	}
	// 3. Local shared deque (line 13) — in receiver mode the cold-path
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
//
// Sender-initiated stealing (the paper's protocol: the thief takes a chunk
// from the victim's shared deque) and receiver-initiated stealing
// (deque.KindRelaxed: the thief posts a request and a victim worker
// donates half its flexible queue at its next task boundary) share the
// sweep; they differ only where rt.receiver is tested.
func (w *worker) stealRemote() *activity {
	if w.place.rt.rec != nil {
		w.sweepStart = w.Now()
	}
	w.loot = nil
	w.thief.Sweep(w)
	return w.loot
}

// Skip is what a thief sees of a victim without a message: its liveness
// (and the runtime's own), and under the receiver-initiated protocol how
// much it could donate, because a request parked at a worker with nothing
// to give holds its one-slot mailbox for a whole timeout. A sender-
// initiated thief cannot see the victim's queue without the probe, so it
// pays the message pair (the paper's Table III counts them).
func (w *worker) Skip(victim int) bool {
	rt := w.place.rt
	return rt.down(victim) || rt.shutdown.Load() || rt.receiver && rt.places[victim].donatable() == 0
}

func (w *worker) Now() int64    { return w.place.rt.nowNS() }
func (w *worker) Wait(ns int64) { time.Sleep(time.Duration(ns)) }
func (w *worker) Record(k obs.Kind, victim int, dur int64) {
	w.place.rt.record(w.place.id, w.local, k, -1, int32(victim), dur)
}

// Steal is the hand-over and the landing of one delivered request: take a
// chunk from the victim's shared deque, or ask one of its workers for a
// donation; keep the first claimable task in w.loot to run now and queue
// the rest where co-located workers can take them without a distributed
// steal of their own (§V-B3).
func (w *worker) Steal(victim, chunkSize int) (got, left int) {
	p := w.place
	rt := p.rt
	from := rt.places[victim]
	var chunk []*activity
	if rt.receiver {
		chunk = w.requestDonation(from)
	} else {
		chunk = from.shared.StealChunk(chunkSize)
	}
	var bytes int64
	for _, a := range chunk {
		bytes += int64(a.loc.MigrationBytes)
	}
	// chunk[0] under the strict kinds, while a relaxed donation may lead
	// with duplicates; one made only of them is no loot at all.
	for w.loot == nil && len(chunk) > 0 {
		if w.claim(chunk[0]) {
			w.loot = chunk[0]
		}
		chunk = chunk[1:]
	}
	if w.loot == nil {
		return 0, 0
	}
	rt.counters.BytesTransferred.Add(bytes)
	if rt.rec != nil {
		w.Record(obs.KindStealRemote, victim, w.Now()-w.sweepStart)
	}
	switch {
	case len(chunk) == 0:
	case rt.receiver:
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
	if rt.ctrl != nil {
		left = from.donatable() // read for the chunk controller only
	}
	return 1 + len(chunk), left
}

// requestDonation is the receiver-initiated hand-over: CAS a request into
// one victim worker's mailbox, wake the victim's idle workers, and wait
// for that owner to donate at its next task boundary (serveMail), so the
// victim's hot path never takes a lock on the thief's behalf. A mailbox
// already occupied by another thief counts as a failed probe; requests
// never queue. A request the owner has not answered within the steal
// timeout is withdrawn, unless the owner claimed it concurrently, in which
// case the donation is already in flight on the buffered reply channel.
func (w *worker) requestDonation(victim *place) []*activity {
	rt := w.place.rt
	target := victim.workers[int(victim.rrWorker.Add(1))%len(victim.workers)]
	req := &donateReq{reply: make(chan []*activity, 1)}
	if !target.mail.CompareAndSwap(nil, req) {
		return nil // another thief's request is parked there
	}
	victim.wakeAll() // idle victim workers answer promptly
	select {
	case chunk := <-req.reply:
		return chunk
	case <-time.After(rt.cfg.StealTimeout):
		if target.mail.CompareAndSwap(req, nil) {
			// Withdrawn: the owner never reached a communication
			// boundary in time.
			rt.counters.StealTimeouts.Add(1)
			rt.record(w.place.id, w.local, obs.KindTimeout, -1, int32(victim.id), 0)
			return nil
		}
		return <-req.reply
	case <-rt.stopCh:
		if target.mail.CompareAndSwap(req, nil) {
			return nil
		}
		// The owner claimed the request before we could withdraw it: a
		// donation is in flight on the buffered reply. Drain it and
		// re-home the tasks rather than dropping them on the floor.
		if chunk := <-req.reply; len(chunk) > 0 {
			w.place.enqueueStolen(chunk)
		}
		return nil
	}
}

// registerLifelines marks this place on its lifeline neighbours
// (LifelineWS, sched.EachLifeline) so they push surplus work here.
func (w *worker) registerLifelines() {
	rt := w.place.rt
	sched.EachLifeline(w.place.id, len(rt.places), rt.down, func(q int) {
		neighbour := rt.places[q]
		if !neighbour.lifelineWaiters[w.place.id].Swap(true) {
			rt.counters.Messages.Add(1) // lifeline registration message
		}
		neighbour.serveLifelines()
	})
}

// run executes one activity and performs the paper's accounting:
// migration effects for Tables II–III, and, for whoever reads it, the
// service time. What it writes per task is the worker's own (stats, the
// activity); the shared counters below move only when a task was stolen or
// ran off-home.
func (w *worker) run(a *activity, how stealKind) {
	rt := w.place.rt
	p := w.place
	w.endIdle()
	w.stats.depth.Add(1)
	p.markActive()

	// Only genuine steals count (Fig. 3): taking a task from a co-located
	// worker's private deque. Polling the own place's shared deque is the
	// designated dequeue path for flexible tasks, not a steal.
	if how == tookLocalSteal {
		rt.counters.LocalSteals.Add(1)
	}
	migrated := p.id != a.home
	if migrated {
		rt.counters.TasksMigrated.Add(1)
		// Remote data references the task performs when run off-home.
		if a.loc.RemoteRefs > 0 {
			rt.counters.RemoteDataAccess.Add(int64(a.loc.RemoteRefs))
			rt.counters.Messages.Add(int64(a.loc.RemoteRefs))
		}
	}

	rt.record(p.id, w.local, obs.KindTaskStart, -1, int32(a.home), 0)
	// The service time has two readers, the trace and the adapt
	// controller; without either the clock is not read.
	timed := rt.rec != nil || rt.ctrl != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	a.ctx = Ctx{rt: rt, placeID: p.id, worker: w, fin: a.fin}
	var elapsed int64
	func() {
		defer func() {
			if v := recover(); v != nil {
				a.fin.fail(v)
			}
			// Accounted before the finish is released: once Run returns,
			// every activity it waited for reads as executed.
			if timed {
				elapsed = time.Since(start).Nanoseconds()
			}
			rt.record(p.id, w.local, obs.KindTaskEnd, -1, 0, elapsed)
			w.stats.executed.Add(1)
			w.stats.depth.Add(-1)
			a.fin.done()
		}()
		a.body(&a.ctx)
	}()

	// Feed the measured service time back to the adapt controller. The
	// in-process runtime has no instrumented data-locality penalty (no
	// hardware counters), so it passes 0 and the controller falls back to
	// the home/away service-time ratio alone.
	if rt.ctrl != nil {
		if flipped, cls := rt.ctrl.ObserveExec(a.kind, migrated, elapsed, 0); flipped {
			rt.counters.Reclassifications.Add(1)
			rt.record(p.id, w.local, obs.KindReclassify, -1, int32(cls), 0)
		}
	}

	// Fault plan: fail-stop this place once it has executed its quota.
	if n, ok := rt.inj.CrashAfterTasks(p.id); ok && p.executed.Add(1) >= n {
		rt.crashPlace(p)
	}
}
