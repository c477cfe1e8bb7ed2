package node

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"distws/internal/comm"
	"distws/internal/member"
	"distws/internal/metrics"
	"distws/internal/task"
)

// Config is what every dispatcher is told about its cluster: exactly the
// settings Coordinator and service.Server export, passed through.
type Config struct {
	// Node is the transport attachment at place 0.
	Node comm.Endpoint
	// Places is the compute cluster size: place 0 dispatches, places
	// 1..Places-1 run Executors. Any other seat reaches only Policy.Other.
	Places int
	// Window caps the items outstanding at one executor. Defaults to 8.
	Window int
	// RetryAfter is how long dispatch may make no progress before every
	// outstanding item is re-sent. Defaults to 5s.
	RetryAfter time.Duration
	// Heartbeat, when > 0, arms the membership failure detector: it sweeps
	// at this cadence and a place silent beyond the adaptive timeout (the
	// per-link inter-arrival EWMA times the suspect/down multipliers,
	// floored at Heartbeat) moves alive → suspect → down. Zero leaves
	// failure detection to transport errors.
	Heartbeat time.Duration
	// Absent lists places that are not present at start and announce
	// themselves with KindJoin later. They receive no work until they do.
	Absent []int
	// Counters receives protocol accounting; nil discards it.
	Counters *metrics.Counters
	// Clock returns the dispatcher-relative time in ns; nil uses the wall
	// clock since NewDispatcher.
	Clock func() int64
	// Logf reports membership and recovery events; nil is silent.
	Logf func(format string, a ...any)
}

// Work is what the dispatcher needs to know of an item to put it on the
// wire.
type Work struct {
	// ID travels as Message.Seq. An item gets it when it enters the system
	// and keeps it across every re-send; no two live items share one.
	ID uint64
	// Name is the registry name executors resolve.
	Name string
	// Arg is the task's opaque argument.
	Arg []byte
	// Tenant is carried in the envelope for the executor's accounting.
	Tenant uint32
}

// Policy is everything that differs between the users of a Dispatcher:
// where waiting items queue, what a completion means, and when to stop.
// The dispatcher calls every func from the goroutine that runs it.
type Policy[T any] struct {
	// Describe names an item on the wire.
	Describe func(T) Work
	// Next hands over the next queued item, false when the queue is empty.
	// It is called only when the item can go somewhere. It may return
	// items that are no longer live; the dispatcher skips them.
	Next func() (T, bool)
	// Requeue takes an item back: its send was shed or failed, its
	// executor nacked it or went down, or the retry sweep gave up waiting.
	Requeue func(T)
	// Done receives the first accepted completion of an item, exactly once.
	Done func(item T, result []byte)
	// Stranded runs a queued item some other way when no executor is
	// eligible for work, and returns its result. Nil makes items wait for
	// a join instead.
	Stranded func(T) ([]byte, error)
	// Other receives messages from seats outside the cluster (a service's
	// clients). Nil drops them.
	Other func(comm.Message)
	// Finished reports that the loop may end; it is asked after every
	// event.
	Finished func() bool
	// Wake, when it becomes readable, makes the loop ask Finished again.
	// It is received from once, so a closed channel is a one-shot signal.
	Wake <-chan struct{}
}

// Dispatcher is the dispatch loop of place 0, shared by Coordinator and
// service.Server: it tracks executor membership, keeps at most Window
// items outstanding at each executor, re-homes the items of an executor
// that dies, drains or nacks, re-sends after a silent period, and accepts
// each item's completion exactly once.
//
// An item is live from Add until its first accepted completion (or Drop),
// and while live it is in exactly one place: the policy's queue, or
// registered at the executor it was last sent to. Re-sends reuse the id,
// so the first KindSpawnDone for a live id wins whichever executor it
// comes from — a job that outlasts RetryAfter is finished by its first
// copy instead of being re-sent forever — and every later twin is dropped.
// Not safe for concurrent use.
type Dispatcher[T any] struct {
	Config
	Policy[T]

	members *member.Table       // the only record of who is alive, suspect, draining
	live    map[uint64]*item[T] // every live item by id
	load    []int               // items registered at each place
	shed    []bool              // places that refused a send during this pump
	cursor  int                 // where the next slot search starts
	rearm   bool                // dispatch progressed during this Step
	start   time.Time
}

// item is one live unit of work; place is the executor it is registered
// at, 0 while it waits in the policy's queue.
type item[T any] struct {
	v     T
	place int
}

// NewDispatcher validates cfg and seeds the membership table: every
// executor not listed in Absent starts alive.
func NewDispatcher[T any](cfg Config, policy Policy[T]) (*Dispatcher[T], error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("node: dispatcher needs a Node")
	}
	if cfg.Places < 2 {
		return nil, fmt.Errorf("node: dispatcher over %d places, want >= 2", cfg.Places)
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5 * time.Second
	}
	if cfg.Counters == nil {
		cfg.Counters = new(metrics.Counters)
	}
	d := &Dispatcher[T]{
		Config:  cfg,
		Policy:  policy,
		members: member.NewTable(cfg.Places, 0, member.Config{MinTimeoutNS: cfg.Heartbeat.Nanoseconds()}),
		live:    make(map[uint64]*item[T]),
		load:    make([]int, cfg.Places),
		shed:    make([]bool, cfg.Places),
		cursor:  1,
		start:   time.Now(),
	}
	// Absent places stay Unknown in the table so their eventual KindJoin
	// is a first contact, not a stale rejoin.
	for p := 1; p < cfg.Places; p++ {
		if !slices.Contains(cfg.Absent, p) {
			d.members.SeedAlive(p, 0)
		}
	}
	return d, nil
}

// Now is the clock the membership table runs on.
func (d *Dispatcher[T]) Now() int64 {
	if d.Clock != nil {
		return d.Clock()
	}
	return time.Since(d.start).Nanoseconds()
}

func (d *Dispatcher[T]) logf(format string, a ...any) {
	if d.Logf != nil {
		d.Logf(format, a...)
	}
}

// Add makes v live. The caller also puts it in the policy's queue.
func (d *Dispatcher[T]) Add(v T) { d.live[d.Describe(v).ID] = &item[T]{v: v} }

// Drop ends a queued item's life without a completion (the policy gave up
// on it) and reports whether it was still live.
func (d *Dispatcher[T]) Drop(id uint64) bool {
	_, ok := d.live[id]
	delete(d.live, id)
	return ok
}

// Live returns how many items are queued or outstanding.
func (d *Dispatcher[T]) Live() int { return len(d.live) }

// EventKind says what a dispatcher is reacting to.
type EventKind uint8

const (
	// Wake is the zero Event: nothing happened to the dispatcher itself, but
	// the policy's queue or its Finished answer may have changed. It is also
	// how a driver starts the loop.
	Wake EventKind = iota
	// Arrival is a message from the transport, in Event.Msg.
	Arrival
	// DetectorTick is one period of the failure detector (Config.Heartbeat).
	DetectorTick
	// RetryFire is the retry window running out: RetryAfter has passed
	// since a Step last reported dispatch progress.
	RetryFire
)

// Event is one thing that happens to a dispatcher.
type Event struct {
	Kind EventKind
	Msg  comm.Message // Arrival only
}

// Step is the whole of the dispatch loop's logic for one event: react to
// it, pump the queue into whatever windows that opened, and ask the policy
// whether the loop is over, releasing the executors with KindShutdown if
// it is. What waits for the next event and keeps the time is a driver:
// Run on the wall clock and the transport's inbox, service.Simulate on
// virtual time.
//
// progress reports that dispatch moved (an item went out, came back or was
// given up on), which is the only thing that restarts the retry window: if
// heartbeats or the detector's tick did, a cadence below RetryAfter would
// keep RetryFire from ever happening, and one lost KindSpawn to a live,
// beating executor would never be re-sent. A RetryFire step always reports
// progress. After done or an error the dispatcher must not be stepped
// again.
func (d *Dispatcher[T]) Step(ev Event) (progress, done bool, err error) {
	d.rearm = false
	switch ev.Kind {
	case Arrival:
		d.handle(ev.Msg)
	case DetectorTick:
		d.detect()
	case RetryFire:
		d.sweep()
		d.rearm = true
	}
	// Whatever happened may have opened a slot or queued an item, and with
	// nothing outstanding RetryFire is the cue for items parked after a shed.
	if err := d.Pump(); err != nil {
		return false, true, err
	}
	if d.Finished() {
		d.release()
		return false, true, nil
	}
	return d.rearm, false, nil
}

// Run drives Step from the transport's inbox, a ticker for the failure
// detector and one timer for the retry window, until the policy is
// finished. A cancelled ctx releases the executors at once and returns
// ctx.Err().
func (d *Dispatcher[T]) Run(ctx context.Context) error {
	var tick <-chan time.Time
	if d.Heartbeat > 0 {
		t := time.NewTicker(d.Heartbeat)
		defer t.Stop()
		tick = t.C
	}
	retry := time.NewTimer(d.RetryAfter)
	defer retry.Stop()
	wake := d.Wake
	_, done, err := d.Step(Event{})
	for !done {
		var ev Event
		select {
		case <-ctx.Done():
			d.release()
			return ctx.Err()
		case <-wake:
			wake = nil
		case m, ok := <-d.Node.Inbox():
			if !ok {
				return fmt.Errorf("node: inbox closed with %d item(s) unfinished", len(d.live))
			}
			ev = Event{Kind: Arrival, Msg: m}
		case <-tick:
			ev.Kind = DetectorTick
		case <-retry.C:
			ev.Kind = RetryFire
		}
		var progress bool
		if progress, done, err = d.Step(ev); progress {
			if !retry.Stop() {
				select {
				case <-retry.C:
				default:
				}
			}
			retry.Reset(d.RetryAfter)
		}
	}
	return err
}

// handle processes one message of the dispatch protocol. Only executor
// seats speak it; anything else goes to the policy.
func (d *Dispatcher[T]) handle(m comm.Message) {
	if m.From <= 0 || m.From >= d.Places {
		if d.Other != nil {
			d.Other(m)
		}
		return
	}
	switch m.Kind {
	case comm.KindPlaceDown:
		d.markDown(m.From)
	case comm.KindSpawnDone:
		d.complete(m.Seq, m.Payload)
	case comm.KindSpawnNack:
		// A draining executor returned the item unstarted. Unlike a
		// completion this is honoured only from the place the item is
		// registered at: a nack says "not here", which is news about that
		// one copy. Only a draining executor nacks, so it is also the drain
		// announcement if none got through yet: the place must stop being
		// eligible before the item is queued again, or it goes straight
		// back there and every duplicate of the nack repeats the trip.
		if it := d.live[m.Seq]; it != nil && it.place == m.From {
			d.drain(m.From)
			d.Counters.TasksOffloaded.Add(1)
			d.unregister(it)
			d.Requeue(it.v)
			d.rearm = true
		}
	case comm.KindHeartbeat:
		d.onHeartbeat(m)
	case comm.KindJoin:
		d.onJoin(m)
	case comm.KindDrain:
		d.drain(m.From)
	}
}

// drain starts a graceful departure, announced by KindDrain or, if that
// frame was lost, by the first heartbeat that says Draining: no new work
// goes there, results and nacks for what is outstanding flow back, then
// the place is released. Nothing is re-executed and the place is not
// counted lost. A repeated announcement changes nothing.
func (d *Dispatcher[T]) drain(p int) {
	if _, ok := d.members.Drain(p, d.Now()); ok {
		d.Counters.MembershipDrains.Add(1)
		d.logf("dispatch: place %d draining (%d item(s) outstanding there)", p, d.load[p])
		d.maybeRelease(p)
	}
}

// complete accepts the first completion of a live id and drops the rest:
// twins of a re-sent item, or the late reply of a healed partition.
func (d *Dispatcher[T]) complete(id uint64, result []byte) {
	it := d.live[id]
	if it == nil {
		return
	}
	delete(d.live, id)
	if it.place != 0 {
		d.unregister(it)
	}
	d.rearm = true
	d.Done(it.v, result)
}

// unregister takes it out of its executor's window.
func (d *Dispatcher[T]) unregister(it *item[T]) {
	p := it.place
	it.place = 0
	d.load[p]--
	d.maybeRelease(p)
}

// maybeRelease completes a drain once nothing is outstanding at the
// draining place: the executor is released and recorded as departed.
func (d *Dispatcher[T]) maybeRelease(p int) {
	if d.load[p] > 0 || d.members.State(p) != member.Draining {
		return
	}
	d.members.Left(p, d.Now())
	d.logf("dispatch: place %d drain complete, released", p)
	d.Node.Send(comm.Message{Kind: comm.KindShutdown, To: p})
}

// markDown records a failure the transport reported, unless the place was
// already gone.
func (d *Dispatcher[T]) markDown(p int) {
	if _, ok := d.members.MarkDown(p, d.Now()); ok {
		d.lost(p)
	}
}

// registered returns the items outstanding at place p, or at any executor
// when p is 0, in ascending id. The registry is a map, and the order in
// which orphans and re-sends re-enter the policy's queue is the order they
// go out again: ranging over it directly made that differ from run to run.
// Only failure paths pay for the sort.
func (d *Dispatcher[T]) registered(p int) []*item[T] {
	var its []*item[T]
	for _, it := range d.live {
		if it.place != 0 && (p == 0 || it.place == p) {
			its = append(its, it)
		}
	}
	slices.SortFunc(its, func(a, b *item[T]) int { return cmp.Compare(d.Describe(a.v).ID, d.Describe(b.v).ID) })
	return its
}

// lost re-homes everything registered at a place the table just moved to
// Down, by markDown or by the detector.
func (d *Dispatcher[T]) lost(p int) {
	d.Counters.PlacesLost.Add(1)
	d.logf("dispatch: place %d down, re-homing %d item(s)", p, d.load[p])
	for _, it := range d.registered(p) {
		it.place = 0
		d.Counters.TasksReExecuted.Add(1)
		d.Requeue(it.v)
	}
	d.load[p] = 0
}

// sweep is the per-request timeout of the protocol: after RetryAfter with
// no dispatch progress every outstanding item goes back to the queue to be
// sent again, to whichever executor the cursor reaches.
func (d *Dispatcher[T]) sweep() {
	its := d.registered(0)
	for _, it := range its {
		d.Counters.Retries.Add(1)
		d.unregister(it)
		d.Requeue(it.v)
	}
	if len(its) > 0 {
		d.logf("dispatch: no progress for %v, re-sending %d item(s)", d.RetryAfter, len(its))
	}
}

// detect runs one failure-detector sweep: silence beyond the adaptive
// suspect timeout is a heartbeat miss; beyond the down timeout the place
// is down and its work re-homed.
func (d *Dispatcher[T]) detect() {
	for _, tr := range d.members.Tick(d.Now()) {
		switch tr.To {
		case member.Suspect:
			d.Counters.HeartbeatMisses.Add(1)
			d.logf("dispatch: place %d suspected (silent too long)", tr.Place)
		case member.Down:
			d.logf("dispatch: place %d declared down by failure detector", tr.Place)
			d.lost(tr.Place)
		}
	}
}

// onHeartbeat refreshes the member table and acks with this side's view
// of the sender. A partitioned-then-healed executor learns from the Down
// in the ack that it must rejoin with a bumped incarnation; a beat that
// already carries the bumped incarnation is itself the rejoin. A drained
// executor whose KindShutdown was lost learns from the Left in the ack that
// it has been released.
func (d *Dispatcher[T]) onHeartbeat(m comm.Message) {
	p, err := member.DecodePayload(m.Payload)
	if err != nil {
		return // malformed beat: the next one supersedes it
	}
	tr, ok := d.members.Heartbeat(m.From, p.Incarnation, d.Now())
	if ok && tr.To == member.Alive {
		if tr.From == member.Suspect {
			d.logf("dispatch: place %d refuted suspicion", m.From)
		} else {
			d.admit(tr)
		}
	}
	// KindDrain is sent once. The beats keep saying what it said, so a
	// drain whose announcement a partition swallowed starts at the first
	// beat the table accepts afterwards.
	if ok && p.State == member.Draining {
		d.drain(m.From)
	}
	ack := member.Payload{
		Incarnation: d.members.Incarnation(m.From),
		Epoch:       d.members.Epoch(),
		State:       d.members.State(m.From),
	}
	d.Node.Send(comm.Message{Kind: comm.KindHeartbeat, To: m.From, Payload: member.AppendPayload(nil, ack)})
}

// onJoin admits a joining (or rejoining) place; the transport's
// incarnation handshake has already re-established an evicted link.
func (d *Dispatcher[T]) onJoin(m comm.Message) {
	p, err := member.DecodePayload(m.Payload)
	if err != nil {
		return
	}
	tr, ok := d.members.Join(m.From, p.Incarnation, d.Now())
	if !ok {
		d.logf("dispatch: stale join from place %d (incarnation %d)", m.From, p.Incarnation)
		return
	}
	d.admit(tr)
}

// admit counts a place the table just made alive; the pump that follows
// every event fills its fresh window.
func (d *Dispatcher[T]) admit(tr member.Transition) {
	rejoin := tr.From == member.Down || tr.From == member.Left
	if rejoin {
		d.Counters.MembershipRejoins.Add(1)
	} else {
		d.Counters.MembershipJoins.Add(1)
	}
	d.logf("dispatch: place %d joined (incarnation %d, rejoin=%v)", tr.Place, tr.Incarnation, rejoin)
}

// eligible reports whether p may be handed new work. A suspect still is:
// suspicion is refutable and its outstanding work is left alone too.
func (d *Dispatcher[T]) eligible(p int) bool {
	st := d.members.State(p)
	return st == member.Alive || st == member.Suspect
}

// slot returns the first eligible executor at or after the cursor that
// has window capacity left and has not shed during this pump, or -1.
func (d *Dispatcher[T]) slot() int {
	for try := 0; try < d.Places-1; try++ {
		p := 1 + (d.cursor-1+try)%(d.Places-1)
		if !d.shed[p] && d.load[p] < d.Window && d.eligible(p) {
			return p
		}
	}
	return -1
}

// stranded reports that no executor is eligible for work at all.
func (d *Dispatcher[T]) stranded() bool {
	for p := 1; p < d.Places; p++ {
		if d.eligible(p) {
			return false
		}
	}
	return true
}

// Pump moves queued items into free executor windows until capacity runs
// out, every executor with room has shed, or the queue drains. Step calls
// it after every event; a policy calls it to start executors on their
// windows before doing work of its own.
func (d *Dispatcher[T]) Pump() error {
	clear(d.shed)
	for {
		dest := d.slot()
		if dest < 0 && (d.Stranded == nil || !d.stranded()) {
			return nil // saturated or shed: the next event or the retry timer resumes
		}
		v, ok := d.Next()
		if !ok {
			return nil
		}
		w := d.Describe(v)
		it := d.live[w.ID]
		if it == nil {
			continue // a re-sent twin already finished
		}
		if dest < 0 {
			result, err := d.Stranded(v)
			if err != nil {
				return err
			}
			d.complete(w.ID, result)
			continue
		}
		env := task.Envelope{Name: w.Name, Arg: w.Arg, Home: dest, Origin: 0, Class: task.Flexible, Tenant: w.Tenant}
		payload, err := env.Encode()
		if err != nil {
			return err // an oversized name or argument: the caller's bug, not the link's
		}
		err = d.Node.Send(comm.Message{Kind: comm.KindSpawn, To: dest, Seq: w.ID, Payload: payload})
		if err == nil {
			it.place = dest
			d.load[dest]++
			d.cursor = dest + 1
			d.rearm = true
			continue
		}
		d.Requeue(v)
		switch {
		case errors.Is(err, comm.ErrPlaceDown):
			d.markDown(dest)
		case errors.Is(err, comm.ErrBackpressure):
			// A typed shed: the destination's queue is full, not broken.
			// Trying it again at once is a retry storm, so skip it for the
			// rest of this pump; if everyone sheds the item stays parked
			// until an event or the retry timer pumps again.
			d.Counters.Backpressure.Add(1)
			d.logf("dispatch: place %d shed item %d (backpressure), backing off", dest, w.ID)
			d.shed[dest] = true
		default:
			// A route still assembling or a transient link error is not a
			// dead cluster: treat it like a shed. A dead executor shows up
			// as ErrPlaceDown or through the detector, a closed node as a
			// closed inbox.
			d.logf("dispatch: send to place %d: %v", dest, err)
			d.shed[dest] = true
		}
	}
}

// release broadcasts KindShutdown to every executor still present.
func (d *Dispatcher[T]) release() {
	for p := 1; p < d.Places; p++ {
		switch d.members.State(p) {
		case member.Alive, member.Suspect, member.Draining:
			d.Node.Send(comm.Message{Kind: comm.KindShutdown, To: p})
		}
	}
}
