package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"distws/internal/comm"
	"distws/internal/member"
	"distws/internal/task"
)

// The front door's dispatch loop: it tracks executor membership, keeps at
// most Window jobs outstanding at each executor, re-homes the jobs of an
// executor that dies, drains or nacks, re-sends after a silent period, and
// accepts each job's completion exactly once.
//
// A job is live from admission until its first accepted completion (or
// until the server gives up on it), and while live it is in exactly one
// place: the fair-share queue, or registered at the executor it was last
// sent to. Re-sends reuse the dispatch id, so the first KindSpawnDone for
// a live id wins whichever executor it comes from — a job that outlasts
// RetryAfter is finished by its first copy instead of being re-sent
// forever — and every later twin is dropped. None of it is safe for
// concurrent use: one driver steps it.

// entry is one live job; place is the executor it is registered at, 0
// while it waits in the fair-share queue.
type entry struct {
	it    Item
	place int
}

// now is the clock the membership table and admission run on.
func (s *Server) now() int64 {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Since(s.began).Nanoseconds()
}

// requeue takes a job back into the fair-share queue: its send was shed
// or failed, its executor nacked it or went down, or the retry sweep gave
// up waiting. Its admission slot is still held.
func (s *Server) requeue(it Item) { s.fs.Push(it.Job.Tenant, it) }

// eventKind says what the dispatch loop is reacting to.
type eventKind uint8

const (
	// wake is the zero event: nothing happened to the dispatch loop itself,
	// but the queue or the drain may have changed. It is also how a driver
	// starts the loop.
	wake eventKind = iota
	// arrival is a message from the transport, in event.msg.
	arrival
	// detectorTick is one period of the failure detector (Server.Heartbeat).
	detectorTick
	// retryFire is the retry window running out: RetryAfter has passed
	// since a step last reported dispatch progress.
	retryFire
)

// event is one thing that happens to the dispatch loop.
type event struct {
	kind eventKind
	msg  comm.Message // arrival only
}

// step is the whole of the dispatch loop's logic for one event: react to
// it, pump the queue into whatever windows that opened, and ask whether
// the loop is over — drained, with nothing live — releasing the executors
// with KindShutdown if it is. What waits for the next event and keeps the
// time is a driver: run on the wall clock and the transport's inbox,
// Simulate's cluster on virtual time.
//
// progress reports that dispatch moved (a job went out, came back or was
// given up on), which is the only thing that restarts the retry window: if
// heartbeats or the detector's tick did, a cadence below RetryAfter would
// keep retryFire from ever happening, and one lost KindSpawn to a live,
// beating executor would never be re-sent. A retryFire step always reports
// progress. After done or an error the loop must not be stepped again.
func (s *Server) step(ev event) (progress, done bool, err error) {
	s.rearm = false
	switch ev.kind {
	case arrival:
		s.handle(ev.msg)
	case detectorTick:
		s.detect()
	case retryFire:
		s.sweep()
		s.rearm = true
	}
	// Whatever happened may have opened a slot or queued a job, and with
	// nothing outstanding retryFire is the cue for jobs parked after a shed.
	if err := s.pump(); err != nil {
		return false, true, err
	}
	if s.stopping() && len(s.live) == 0 {
		s.release()
		return false, true, nil
	}
	return s.rearm, false, nil
}

// run drives step from the transport's inbox, a ticker for the failure
// detector, one timer for the retry window and the Server's drain signal,
// until a drain completes. A cancelled ctx releases the executors at once
// and returns ctx.Err().
func (s *Server) run(ctx context.Context) error {
	var tick <-chan time.Time
	if s.Heartbeat > 0 {
		t := time.NewTicker(s.Heartbeat)
		defer t.Stop()
		tick = t.C
	}
	retry := time.NewTimer(s.RetryAfter)
	defer retry.Stop()
	drained := s.drained()
	_, done, err := s.step(event{kind: wake})
	for !done {
		var ev event
		select {
		case <-ctx.Done():
			s.release()
			return ctx.Err()
		case <-drained:
			drained = nil // a closed channel: one wake is enough
		case m, ok := <-s.Node.Inbox():
			if !ok {
				return fmt.Errorf("service: inbox closed with %d job(s) unfinished", len(s.live))
			}
			ev = event{kind: arrival, msg: m}
		case <-tick:
			ev.kind = detectorTick
		case <-retry.C:
			ev.kind = retryFire
		}
		var progress bool
		if progress, done, err = s.step(ev); progress {
			if !retry.Stop() {
				select {
				case <-retry.C:
				default:
				}
			}
			retry.Reset(s.RetryAfter)
		}
	}
	return err
}

// handle processes one message of the dispatch protocol. Only executor
// seats speak it; a message from any other seat is a client's.
func (s *Server) handle(m comm.Message) {
	if m.From <= 0 || m.From >= s.Places {
		s.onSubmit(m)
		return
	}
	switch m.Kind {
	case comm.KindPlaceDown:
		s.markDown(m.From)
	case comm.KindSpawnDone:
		s.complete(m.Seq, m.Payload)
	case comm.KindSpawnNack:
		// A draining executor returned the job unstarted. Unlike a
		// completion this is honoured only from the place the job is
		// registered at: a nack says "not here", which is news about that
		// one copy. Only a draining executor nacks, so it is also the drain
		// announcement if none got through yet: the place must stop being
		// eligible before the job is queued again, or it goes straight
		// back there and every duplicate of the nack repeats the trip.
		if e := s.live[m.Seq]; e != nil && e.place == m.From {
			s.drain(m.From)
			s.Counters.TasksOffloaded.Add(1)
			s.unregister(e)
			s.requeue(e.it)
			s.rearm = true
		}
	case comm.KindHeartbeat:
		s.onHeartbeat(m)
	case comm.KindJoin:
		s.onJoin(m)
	case comm.KindDrain:
		s.drain(m.From)
	}
}

// drain starts a graceful departure, announced by KindDrain or, if that
// frame was lost, by the first heartbeat that says Draining: no new work
// goes there, results and nacks for what is outstanding flow back, then
// the place is released. Nothing is re-executed and the place is not
// counted lost. A repeated announcement changes nothing.
func (s *Server) drain(p int) {
	if _, ok := s.members.Drain(p, s.now()); ok {
		s.Counters.MembershipDrains.Add(1)
		s.logf("dispatch: place %d draining (%d item(s) outstanding there)", p, s.load[p])
		s.maybeRelease(p)
	}
}

// complete accepts the first completion of a live id and drops the rest:
// twins of a re-sent job, or the late reply of a healed partition.
func (s *Server) complete(seq uint64, result []byte) {
	e := s.live[seq]
	if e == nil {
		return
	}
	delete(s.live, seq)
	if e.place != 0 {
		s.unregister(e)
	}
	s.rearm = true
	s.done(e.it, result)
}

// unregister takes e out of its executor's window.
func (s *Server) unregister(e *entry) {
	p := e.place
	e.place = 0
	s.load[p]--
	s.maybeRelease(p)
}

// maybeRelease completes a drain once nothing is outstanding at the
// draining place: the executor is released and recorded as departed.
func (s *Server) maybeRelease(p int) {
	if s.load[p] > 0 || s.members.State(p) != member.Draining {
		return
	}
	s.members.Left(p)
	s.logf("dispatch: place %d drain complete, released", p)
	s.Node.Send(comm.Message{Kind: comm.KindShutdown, To: p})
}

// markDown records a failure the transport reported, unless the place was
// already gone.
func (s *Server) markDown(p int) {
	if _, ok := s.members.MarkDown(p); ok {
		s.lost(p)
	}
}

// registered returns the jobs outstanding at place p, or at any executor
// when p is 0, in ascending id. The registry is a map, and the order in
// which orphans and re-sends re-enter the queue is the order they go out
// again: ranging over it directly made that differ from run to run. Only
// failure paths pay for the sort.
func (s *Server) registered(p int) []*entry {
	var es []*entry
	for _, e := range s.live {
		if e.place != 0 && (p == 0 || e.place == p) {
			es = append(es, e)
		}
	}
	slices.SortFunc(es, func(a, b *entry) int { return cmp.Compare(a.it.Seq, b.it.Seq) })
	return es
}

// lost re-homes everything registered at a place the table just moved to
// Down, by markDown or by the detector.
func (s *Server) lost(p int) {
	s.Counters.PlacesLost.Add(1)
	s.logf("dispatch: place %d down, re-homing %d item(s)", p, s.load[p])
	for _, e := range s.registered(p) {
		e.place = 0
		s.Counters.TasksReExecuted.Add(1)
		s.requeue(e.it)
	}
	s.load[p] = 0
}

// sweep is the per-request timeout of the protocol: after RetryAfter with
// no dispatch progress every outstanding job goes back to the queue to be
// sent again, to whichever executor the cursor reaches.
func (s *Server) sweep() {
	es := s.registered(0)
	for _, e := range es {
		s.Counters.Retries.Add(1)
		s.unregister(e)
		s.requeue(e.it)
	}
	if len(es) > 0 {
		s.logf("dispatch: no progress for %v, re-sending %d item(s)", s.RetryAfter, len(es))
	}
}

// detect runs one failure-detector sweep: silence beyond the adaptive
// suspect timeout is a heartbeat miss; beyond the down timeout the place
// is down and its work re-homed.
func (s *Server) detect() {
	for _, tr := range s.members.Tick(s.now()) {
		switch tr.To {
		case member.Suspect:
			s.Counters.HeartbeatMisses.Add(1)
			s.logf("dispatch: place %d suspected (silent too long)", tr.Place)
		case member.Down:
			s.logf("dispatch: place %d declared down by failure detector", tr.Place)
			s.lost(tr.Place)
		}
	}
}

// onHeartbeat refreshes the member table and acks with this side's view
// of the sender. A partitioned-then-healed executor learns from the Down
// in the ack that it must rejoin with a bumped incarnation; a beat that
// already carries the bumped incarnation is itself the rejoin. A drained
// executor whose KindShutdown was lost learns from the Left in the ack that
// it has been released.
func (s *Server) onHeartbeat(m comm.Message) {
	p, err := member.DecodePayload(m.Payload)
	if err != nil {
		return // malformed beat: the next one supersedes it
	}
	tr, ok := s.members.Heartbeat(m.From, p.Incarnation, s.now())
	if ok && tr.To == member.Alive {
		if tr.From == member.Suspect {
			s.logf("dispatch: place %d refuted suspicion", m.From)
		} else {
			s.admit(tr)
		}
	}
	// KindDrain is sent once. The beats keep saying what it said, so a
	// drain whose announcement a partition swallowed starts at the first
	// beat the table accepts afterwards.
	if ok && p.State == member.Draining {
		s.drain(m.From)
	}
	ack := member.Payload{
		Incarnation: s.members.Incarnation(m.From),
		State:       s.members.State(m.From),
	}
	s.Node.Send(comm.Message{Kind: comm.KindHeartbeat, To: m.From, Payload: member.AppendPayload(nil, ack)})
}

// onJoin admits a joining (or rejoining) place; the transport's
// incarnation handshake has already re-established an evicted link.
func (s *Server) onJoin(m comm.Message) {
	p, err := member.DecodePayload(m.Payload)
	if err != nil {
		return
	}
	tr, ok := s.members.Join(m.From, p.Incarnation, s.now())
	if !ok {
		s.logf("dispatch: stale join from place %d (incarnation %d)", m.From, p.Incarnation)
		return
	}
	s.admit(tr)
}

// admit counts a place the table just made alive; the pump that follows
// every event fills its fresh window.
func (s *Server) admit(tr member.Transition) {
	rejoin := tr.From == member.Down || tr.From == member.Left
	if rejoin {
		s.Counters.MembershipRejoins.Add(1)
	} else {
		s.Counters.MembershipJoins.Add(1)
	}
	s.logf("dispatch: place %d joined (incarnation %d, rejoin=%v)", tr.Place, tr.Incarnation, rejoin)
}

// slot returns the first executor at or after the cursor that may be
// handed new work, has window capacity left and has not shed during this
// pump, or -1. A suspect still may: suspicion is refutable, and its
// outstanding work is left alone too.
func (s *Server) slot() int {
	for try := 0; try < s.Places-1; try++ {
		p := 1 + (s.cursor-1+try)%(s.Places-1)
		st := s.members.State(p)
		if !s.shed[p] && s.load[p] < s.Window && (st == member.Alive || st == member.Suspect) {
			return p
		}
	}
	return -1
}

// pump moves queued jobs into free executor windows until capacity runs
// out, every executor with room has shed, or the queue drains. step calls
// it after every event.
func (s *Server) pump() error {
	clear(s.shed)
	for {
		dest := s.slot()
		if dest < 0 {
			return nil // saturated or shed: the next event or the retry timer resumes
		}
		it, ok := s.next()
		if !ok {
			return nil
		}
		e := s.live[it.Seq]
		if e == nil {
			continue // a re-sent twin already finished
		}
		env := task.Envelope{Name: it.Job.Name, Arg: it.Job.Arg, Home: dest, Origin: 0, Class: task.Flexible, Tenant: it.Job.Tenant}
		payload, err := env.Encode()
		if err != nil {
			return err // an oversized name or argument: the caller's bug, not the link's
		}
		err = s.Node.Send(comm.Message{Kind: comm.KindSpawn, To: dest, Seq: it.Seq, Payload: payload})
		if err == nil {
			e.place = dest
			s.load[dest]++
			s.cursor = dest + 1
			s.rearm = true
			continue
		}
		s.requeue(it)
		switch {
		case errors.Is(err, comm.ErrPlaceDown):
			s.markDown(dest)
		case errors.Is(err, comm.ErrBackpressure):
			// A typed shed: the destination's queue is full, not broken.
			// Trying it again at once is a retry storm, so skip it for the
			// rest of this pump; if everyone sheds the job stays parked
			// until an event or the retry timer pumps again.
			s.Counters.Backpressure.Add(1)
			s.logf("dispatch: place %d shed item %d (backpressure), backing off", dest, it.Seq)
			s.shed[dest] = true
		default:
			// A route still assembling or a transient link error is not a
			// dead cluster: treat it like a shed. A dead executor shows up
			// as ErrPlaceDown or through the detector, a closed node as a
			// closed inbox.
			s.logf("dispatch: send to place %d: %v", dest, err)
			s.shed[dest] = true
		}
	}
}

// release broadcasts KindShutdown to every executor still present.
func (s *Server) release() {
	for p := 1; p < s.Places; p++ {
		switch s.members.State(p) {
		case member.Alive, member.Suspect, member.Draining:
			s.Node.Send(comm.Message{Kind: comm.KindShutdown, To: p})
		}
	}
}
