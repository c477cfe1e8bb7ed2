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
	// claimed is the dispatch-level dedup for the relaxed queues
	// (multiplicity semantics): whichever taker wins this flag runs the
	// activity; every other take of the same activity is discarded.
	claimed atomic.Bool
}

// place mirrors the paper's Fig. 2: several workers with private deques
// plus one shared deque for locality-flexible tasks, and the place-local
// status object of §VI-B.
type place struct {
	id int
	rt *Runtime

	workers []*worker
	shared  deque.Shared[*activity]

	running  atomic.Int32  // activities currently executing here
	queued   atomic.Int32  // activities queued here (private + shared)
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
	wake     chan struct{}

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
		w := &worker{
			place: p,
			local: i,
			rng:   rand.New(rand.NewSource(rt.cfg.Seed + int64(id*1000+i))),
			priv:  deque.New[*activity](rt.cfg.Deque),
		}
		if rt.receiver {
			// Receiver-initiated mode: each worker owns a fence-free
			// flexible queue; the place's shared deque survives only as a
			// cold-path inbox for cross-place arrivals.
			w.flex = deque.NewRelaxed[*activity]()
		}
		p.workers[i] = w
	}
	return p
}

// queuesEmpty reports whether nothing is queued at the place. The queued
// counter is exact under the strict deque kinds; under the relaxed queues
// duplicate takes make it a heuristic, so drain logic inspects the queues
// themselves.
func (p *place) queuesEmpty() bool {
	if !p.rt.receiver {
		return p.queued.Load() == 0
	}
	if p.shared.Len() != 0 {
		return false
	}
	for _, w := range p.workers {
		if w.priv.Len() != 0 || w.inbox.Len() != 0 || w.flex.Len() != 0 {
			return false
		}
	}
	return true
}

// donatable reports whether any worker's flexible queue holds work a
// receiver-initiated donation could hand out. Remote thieves use this for
// their skip heuristic instead of the queued counter: duplicate takes
// under multiplicity drift that counter (serveMail decrements for a task
// whose other copy was already claimed and decremented), and a negative
// drift would otherwise hide a victim with real backlog from every remote
// thief permanently.
func (p *place) donatable() int {
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

// load captures the Algorithm-1 inputs for task mapping. The queued
// counter can drift negative under the relaxed queues' duplicate takes;
// clamp it so a drifted place does not under-report its Size.
func (p *place) load() sched.PlaceLoad {
	running := int(p.running.Load())
	queued := int(p.queued.Load())
	if queued < 0 {
		queued = 0
	}
	return sched.PlaceLoad{
		Active:     p.active.Load(),
		Spares:     p.rt.cfg.Cluster.WorkersPerPlace - running,
		Size:       running + queued,
		MaxThreads: p.rt.cfg.MaxThreads,
	}
}

func (p *place) nextSeq() uint64 { return p.spawnSeq.Add(1) }

// enqueue places a freshly mapped activity in the chosen deque flavour and
// wakes idle workers. Assigning work (re)activates the place (§VI-B).
// spawner, when non-nil and co-located, receives private-target tasks in
// its own deque (X10 help-first: spawned work stays with the spawner until
// stolen).
func (p *place) enqueue(a *activity, target sched.Target, spawner *worker) {
	p.queued.Add(1)
	p.active.Store(true)
	p.failedSweeps.Store(0)
	if target == sched.TargetShared {
		if w := spawner; p.rt.receiver && w != nil && w.place == p {
			// Receiver-initiated mode, spawn boundary: the spawning owner
			// keeps flexible work in its own fence-free queue and serves
			// any parked steal request — this is the only point where a
			// busy owner communicates with thieves.
			w.flex.Push(a)
			w.serveMail()
		} else {
			p.shared.Push(a)
			p.serveLifelines()
		}
	} else if w := spawner; w != nil && w.place == p {
		// The spawning worker pushes onto its own private deque — the
		// only caller the lock-free kinds' owner-only Push contract
		// admits.
		w.priv.Push(a)
	} else {
		// External submit, cross-place spawn, or re-homed orphan: a
		// foreign Push racing the owner on a ChaseLev/Relaxed priv deque
		// races on bottom and can drop or duplicate tasks, so foreign
		// affinitized arrivals go through a round-robin-chosen worker's
		// mutex-guarded inbox instead.
		w := p.workers[int(p.rrWorker.Add(1))%len(p.workers)]
		w.inbox.Push(a)
	}
	p.wakeAll()
	// A spawn racing the place's crash or drain may land after the
	// respective queue sweep: both paths set their flag before sweeping,
	// so re-checking here and re-sweeping guarantees the activity is not
	// stranded.
	if p.dead.Load() {
		p.rt.rescue(p)
	} else if p.draining.Load() {
		p.rt.offload(p)
	}
}

// enqueueStolen inserts tasks obtained by a distributed steal into this
// (thief) place's shared deque so co-located workers can pick them up
// without their own distributed steal (§V-B3).
func (p *place) enqueueStolen(chunk []*activity) {
	p.rt.record(p.id, 0, obs.KindArrive, -1, int32(len(chunk)), 0)
	for _, a := range chunk {
		p.queued.Add(1)
		p.shared.Push(a)
	}
	p.active.Store(true)
	p.failedSweeps.Store(0)
	p.wakeAll()
	if p.dead.Load() {
		p.rt.rescue(p)
	} else if p.draining.Load() {
		p.rt.offload(p)
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
			p.queued.Add(-1)
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
// FIFO-end steal for co-located thieves — behind deque.WorkQueue:
// Config.Deque selects the mutex-guarded deque.Private (default, the
// observable-lock design the paper reasons about), the lock-free
// deque.ChaseLev, which bounds the interruption a steal inflicts on the
// victim (§V), or the fence-free deque.Relaxed.
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
	rng   *rand.Rand
	// victims is sweep-order scratch reused across adaptive remote
	// steals so victim ordering does not allocate per sweep.
	victims []int

	// flex is this worker's fence-free queue of locality-flexible tasks
	// (receiver-initiated mode only, nil otherwise): the owner pushes its
	// flexible spawns here instead of the place's shared deque, co-located
	// thieves steal from it directly, and remote thieves receive halves of
	// it as donations.
	flex *deque.Relaxed[*activity]
	// mail is the worker's steal-request mailbox: an idle remote thief
	// CASes a request in; the owner answers at its next task-spawn or
	// task-completion boundary. At most one request parks at a time.
	mail atomic.Pointer[donateReq]
}

// claim marks a as dispatched exactly once. The relaxed queues may hand a
// task out twice (multiplicity semantics); the loser of the claim discards
// its copy. The strict kinds hand out each task at most once, so the check
// short-circuits to true.
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
		w.place.queued.Add(-int32(len(chunk)))
		rt.counters.Donations.Add(1)
		rt.record(w.place.id, w.local, obs.KindDonate, -1, int32(len(chunk)), 0)
	}
	req.reply <- chunk
}

// loop is Algorithm 1 lines 9–29. A worker whose place fail-stops exits
// the loop: the crash model is fail-stop at the next scheduling point.
func (w *worker) loop() {
	rt := w.place.rt
	defer rt.workerWG.Done()
	for !rt.shutdown.Load() && !w.place.dead.Load() {
		a, how := w.findWork()
		if a == nil {
			w.place.noteFailedSweep()
			rt.counters.FailedSteals.Add(1)
			rt.record(w.place.id, w.local, obs.KindStealFail, -1, 0, 0)
			if rt.cfg.Policy == sched.LifelineWS {
				w.registerLifelines()
			}
			select {
			case <-w.place.wake:
			case <-time.After(rt.cfg.IdlePoll):
			}
			continue
		}
		w.run(a, how)
	}
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
	// 1. Own private deque (line 9). The take loops skip claim-losing
	// duplicates from the relaxed queues; under the strict kinds claim is
	// always true and each loop runs at most one full iteration.
	for {
		a, ok := w.priv.Pop()
		if !ok {
			break
		}
		if w.claim(a) {
			p.queued.Add(-1)
			return a, tookOwn
		}
	}
	// 1a. Own inbox: foreign affinitized arrivals (FIFO — oldest first).
	for {
		a, ok := w.inbox.Steal()
		if !ok {
			break
		}
		if w.claim(a) {
			p.queued.Add(-1)
			return a, tookOwn
		}
	}
	// 1b. Own flexible queue (receiver-initiated mode).
	if rcv {
		for {
			a, ok := w.flex.Pop()
			if !ok {
				break
			}
			if w.claim(a) {
				p.queued.Add(-1)
				return a, tookOwn
			}
		}
	}
	// 2. Steal from co-located workers' private deques, inboxes and, in
	// receiver mode, flexible queues (line 12). Affinity is place-level,
	// so a peer's inbox is fair game for a co-located thief.
	for off := 1; off < len(p.workers); off++ {
		peer := p.workers[(w.local+off)%len(p.workers)]
		if a, ok := peer.priv.Steal(); ok && w.claim(a) {
			p.queued.Add(-1)
			p.rt.record(p.id, w.local, obs.KindStealLocal, -1, int32(peer.local), 0)
			return a, tookLocalSteal
		}
		if a, ok := peer.inbox.Steal(); ok && w.claim(a) {
			p.queued.Add(-1)
			p.rt.record(p.id, w.local, obs.KindStealLocal, -1, int32(peer.local), 0)
			return a, tookLocalSteal
		}
		if rcv {
			if a, ok := peer.flex.Steal(); ok && w.claim(a) {
				p.queued.Add(-1)
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
			p.queued.Add(-1)
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

// stealRemote sweeps remote places' shared deques in randomized order,
// taking a chunk from the first victim with surplus. The first task is
// returned for execution; the remainder go to the thief place's shared
// deque. Every probe is a request/reply message pair. Places marked down
// are excluded from the sweep, and a probe lost to an injected link fault
// costs the thief a steal timeout followed by retries under exponential
// backoff with jitter.
func (w *worker) stealRemote() *activity {
	rt := w.place.rt
	if rt.receiver {
		return w.stealRemoteReceiver()
	}
	chunkSize := sched.RemoteChunk(rt.cfg.Policy)
	if rt.ctrl != nil {
		chunkSize = rt.ctrl.Chunk(w.place.id)
	}
	// Acquisition latency (probe round trips, backoff waits, transfer) is
	// only measured when tracing is on or the adapt controller needs it to
	// bias victim selection; the plain path stays clock-free.
	timing := rt.rec != nil || rt.ctrl != nil
	var sweepStart time.Time
	if timing {
		sweepStart = time.Now()
	}
	victims := sched.VictimOrder(rt.cfg.Policy, w.place.id, len(rt.places), w.rng)
	if rt.ctrl != nil {
		w.victims = rt.ctrl.AppendVictimOrder(w.victims[:0], w.place.id, w.rng)
		victims = w.victims
	}
	for _, v := range victims {
		victim := rt.places[v]
		if victim.dead.Load() || victim.draining.Load() {
			continue
		}
		var probeStart time.Time
		if rt.ctrl != nil {
			probeStart = time.Now()
		}
		chunk := w.probeVictim(victim, chunkSize)
		if chunk == nil {
			if rt.ctrl != nil {
				rt.ctrl.ObserveSteal(w.place.id, v, time.Since(probeStart).Nanoseconds(), 0, 0)
			}
			continue
		}
		if rt.ctrl != nil {
			rt.ctrl.ObserveSteal(w.place.id, v, time.Since(probeStart).Nanoseconds(),
				len(chunk), victim.shared.Len())
		}
		victim.queued.Add(-int32(len(chunk)))
		rt.counters.RemoteSteals.Add(int64(len(chunk)))
		if rt.rec != nil {
			rt.rec.Record(w.place.id, w.local, obs.KindStealRemote, -1, int32(v),
				time.Since(sweepStart).Nanoseconds())
		}
		var bytes int64
		for _, a := range chunk {
			bytes += int64(a.loc.MigrationBytes)
		}
		rt.counters.BytesTransferred.Add(bytes)
		first := chunk[0]
		if len(chunk) > 1 {
			w.place.enqueueStolen(chunk[1:])
		}
		return first
	}
	return nil
}

// stealRemoteReceiver is the receiver-initiated counterpart of
// stealRemote (deque.KindRelaxed): instead of reaching into a victim's
// shared deque, the idle thief posts a steal request into one victim
// worker's mailbox and waits for that owner to donate half its flexible
// queue at its next task boundary. The victim's hot path never takes a
// lock on the thief's behalf.
func (w *worker) stealRemoteReceiver() *activity {
	rt := w.place.rt
	timing := rt.rec != nil || rt.ctrl != nil
	var sweepStart time.Time
	if timing {
		sweepStart = time.Now()
	}
	victims := sched.VictimOrder(rt.cfg.Policy, w.place.id, len(rt.places), w.rng)
	if rt.ctrl != nil {
		w.victims = rt.ctrl.AppendVictimOrder(w.victims[:0], w.place.id, w.rng)
		victims = w.victims
	}
	for _, v := range victims {
		victim := rt.places[v]
		if victim.dead.Load() || victim.draining.Load() {
			continue
		}
		if victim.donatable() == 0 {
			continue // nothing to donate; don't park a request for nothing
		}
		var probeStart time.Time
		if rt.ctrl != nil {
			probeStart = time.Now()
		}
		chunk := w.receiverProbe(victim)
		if len(chunk) == 0 {
			if rt.ctrl != nil {
				rt.ctrl.ObserveSteal(w.place.id, v, time.Since(probeStart).Nanoseconds(), 0, 0)
			}
			continue
		}
		if rt.ctrl != nil {
			rt.ctrl.ObserveSteal(w.place.id, v, time.Since(probeStart).Nanoseconds(),
				len(chunk), victim.donatable())
		}
		rt.counters.RemoteSteals.Add(int64(len(chunk)))
		if rt.rec != nil {
			rt.rec.Record(w.place.id, w.local, obs.KindStealRemote, -1, int32(v),
				time.Since(sweepStart).Nanoseconds())
		}
		var bytes int64
		for _, a := range chunk {
			bytes += int64(a.loc.MigrationBytes)
		}
		rt.counters.BytesTransferred.Add(bytes)
		// The first claimable task runs now; the rest go into this
		// worker's own flexible queue (an owner push — no shared
		// structure involved) where co-located workers can steal them.
		p := w.place
		var first *activity
		kept := 0
		for _, a := range chunk {
			if first == nil {
				if w.claim(a) {
					first = a
				}
				continue
			}
			w.flex.Push(a)
			kept++
		}
		if kept > 0 {
			p.queued.Add(int32(kept))
			p.active.Store(true)
			p.failedSweeps.Store(0)
			rt.record(p.id, w.local, obs.KindArrive, -1, int32(kept), 0)
			p.wakeAll()
			if p.dead.Load() {
				rt.rescue(p)
			} else if p.draining.Load() {
				rt.offload(p)
			}
		}
		if first != nil {
			return first
		}
		// Every task in the donation was a duplicate; keep sweeping.
	}
	return nil
}

// receiverProbe runs one receiver-initiated steal round trip: CAS a
// request into a victim worker's mailbox, wake the victim's idle workers,
// and wait for the donation. The same injected-fault vocabulary as
// probeVictim applies — a lost request or reply burns a steal timeout and
// retries under backoff. A mailbox already occupied by another thief
// counts as a failed probe; requests never queue. A request the owner has
// not answered within the steal timeout is withdrawn, unless the owner
// claimed it concurrently, in which case the donation is already in
// flight on the buffered reply channel.
func (w *worker) receiverProbe(victim *place) []*activity {
	rt := w.place.rt
	for attempt := 0; ; attempt++ {
		rt.counters.RemoteProbes.Add(1)
		rt.counters.StealRequests.Add(1)
		rt.counters.Messages.Add(2) // steal-req + donation reply
		rt.record(w.place.id, w.local, obs.KindProbe, -1, int32(victim.id), 0)
		now := rt.nowNS()
		if rt.inj.PartitionedAt(w.place.id, victim.id, now) ||
			rt.inj.Drop(w.place.id, victim.id) || rt.inj.Drop(victim.id, w.place.id) {
			rt.counters.DroppedMessages.Add(1)
			rt.counters.StealTimeouts.Add(1)
			rt.record(w.place.id, w.local, obs.KindTimeout, -1, int32(victim.id), 0)
			if attempt+1 >= rt.cfg.StealMaxAttempts {
				return nil
			}
			rt.counters.Retries.Add(1)
			time.Sleep(backoffJitter(rt.cfg.StealTimeout, attempt, w.rng))
			if victim.dead.Load() || victim.draining.Load() || rt.shutdown.Load() {
				return nil
			}
			continue
		}
		delay := rt.inj.SpikeNS(w.place.id, victim.id) +
			rt.inj.GrayNS(w.place.id, victim.id, now) + rt.inj.GrayNS(victim.id, w.place.id, now)
		if delay > 0 {
			time.Sleep(time.Duration(delay))
		}
		if rt.inj.Duplicate(victim.id, w.place.id) {
			rt.counters.Messages.Add(1)
			rt.counters.DuplicatedMessages.Add(1)
		}
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
			// The owner claimed the request before we could withdraw it:
			// a donation (already deducted from the victim's accounting)
			// is in flight on the buffered reply. Drain it and re-home
			// the tasks rather than dropping them on the floor.
			if chunk := <-req.reply; len(chunk) > 0 {
				w.place.enqueueStolen(chunk)
			}
			return nil
		}
	}
}

// probeVictim performs the steal request/reply round trip against one
// victim. When fault injection loses the request or the reply, the thief
// waits out one steal timeout, then retries under exponential backoff
// with jitter, up to Config.StealMaxAttempts requests, before giving the
// victim up for this sweep.
func (w *worker) probeVictim(victim *place, chunkSize int) []*activity {
	rt := w.place.rt
	for attempt := 0; ; attempt++ {
		rt.counters.RemoteProbes.Add(1)
		rt.counters.Messages.Add(2) // steal-req + steal-resp
		rt.record(w.place.id, w.local, obs.KindProbe, -1, int32(victim.id), 0)
		now := rt.nowNS()
		if rt.inj.PartitionedAt(w.place.id, victim.id, now) ||
			rt.inj.Drop(w.place.id, victim.id) || rt.inj.Drop(victim.id, w.place.id) {
			// Request or reply lost — to a link fault or an active
			// partition window: the thief burns a timeout and retries.
			rt.counters.DroppedMessages.Add(1)
			rt.counters.StealTimeouts.Add(1)
			rt.record(w.place.id, w.local, obs.KindTimeout, -1, int32(victim.id), 0)
			if attempt+1 >= rt.cfg.StealMaxAttempts {
				return nil
			}
			rt.counters.Retries.Add(1)
			time.Sleep(backoffJitter(rt.cfg.StealTimeout, attempt, w.rng))
			if victim.dead.Load() || victim.draining.Load() || rt.shutdown.Load() {
				return nil
			}
			continue
		}
		// Gray links degrade silently: both directions pay the injected
		// extra latency on top of any spike.
		delay := rt.inj.SpikeNS(w.place.id, victim.id) +
			rt.inj.GrayNS(w.place.id, victim.id, now) + rt.inj.GrayNS(victim.id, w.place.id, now)
		if delay > 0 {
			time.Sleep(time.Duration(delay))
		}
		if rt.inj.Duplicate(victim.id, w.place.id) {
			// The reply arrives twice; dedup absorbs the copy, but the
			// extra message is real traffic.
			rt.counters.Messages.Add(1)
			rt.counters.DuplicatedMessages.Add(1)
		}
		return victim.shared.StealChunk(chunkSize)
	}
}

// backoffJitter returns the wait before retry attempt (0-based): the base
// timeout doubled per attempt, with full jitter in [d/2, d) so racing
// thieves desynchronize.
func backoffJitter(base time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base << attempt
	if d <= 0 {
		return base
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rng.Int63n(half+1))
}

// registerLifelines marks this place on its hypercube lifeline neighbours
// (LifelineWS) so they push surplus work here. A crashed neighbour is
// re-homed: the registration goes to the next surviving place, keeping
// the lifeline graph connected as places fail.
func (w *worker) registerLifelines() {
	rt := w.place.rt
	for _, q := range sched.Lifelines(w.place.id, len(rt.places)) {
		if rt.places[q].dead.Load() || rt.places[q].draining.Load() {
			q = rt.down.NextAlive(q + 1)
			if q < 0 || q == w.place.id {
				continue
			}
		}
		neighbour := rt.places[q]
		if !neighbour.lifelineWaiters[w.place.id].Swap(true) {
			rt.counters.Messages.Add(1) // lifeline registration message
		}
		neighbour.serveLifelines()
	}
}

// run executes one activity and performs all the paper's accounting: busy
// time for Fig. 7, migration/cache effects for Tables II–III.
func (w *worker) run(a *activity, how stealKind) {
	rt := w.place.rt
	p := w.place
	p.running.Add(1)
	p.active.Store(true)
	p.failedSweeps.Store(0)

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
	start := time.Now()
	ctx := &Ctx{rt: rt, placeID: p.id, worker: w, fin: a.fin}
	func() {
		defer a.fin.done()
		defer func() {
			if v := recover(); v != nil {
				a.fin.fail(v)
			}
		}()
		a.body(ctx)
	}()
	elapsed := time.Since(start).Nanoseconds()
	rt.util.AddBusy(p.id, elapsed)
	rt.record(p.id, w.local, obs.KindTaskEnd, -1, 0, elapsed)
	rt.counters.TasksExecuted.Add(1)
	p.running.Add(-1)

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
