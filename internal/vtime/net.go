package vtime

import (
	"fmt"

	"distws/internal/comm"
	"distws/internal/fault"
)

// Net is an in-memory network on virtual time. Its seats implement
// comm.Endpoint, so the dispatch protocol runs on it unchanged, but nothing
// here blocks, sleeps or starts a goroutine: Send pushes the frame onto the
// event heap to arrive one link latency later, and the caller's loop over
// Step is the only thing that makes time pass. A seeded fault.Injector
// decides, per frame and whatever its kind, whether it is cut off by an
// active partition, lost, delayed by a spike or a gray link (and so
// overtaken by later frames), delivered twice, or addressed to a seat the
// plan has crashed. Equal seeds and equal call sequences give equal runs.
//
// One goroutine owns a Net and everything attached to it.
type Net struct {
	// Deliver receives every frame that reaches a live seat; whoever drives
	// the net sets it before the first Step.
	Deliver func(to int, m comm.Message)

	events    Heap[netEvent]
	now       int64
	latencyNS int64
	inj       *fault.Injector
	seats     []Seat
	worked    *Seat // the seat that called Work during the current event
}

// netEvent is a frame in flight or, when fn is set, a scheduled callback.
type netEvent struct {
	msg comm.Message
	fn  func()
}

// NewNet returns a network of seats seats whose every link takes latencyNS
// one way. inj may be nil for a fault-free net.
func NewNet(seats int, latencyNS int64, inj *fault.Injector) *Net {
	if seats <= 0 || latencyNS < 0 {
		panic(fmt.Sprintf("vtime: NewNet(%d seats, %d ns)", seats, latencyNS))
	}
	n := &Net{latencyNS: latencyNS, inj: inj, seats: make([]Seat, seats)}
	for p := range n.seats {
		n.seats[p] = Seat{net: n, place: p}
	}
	return n
}

// Now returns the virtual time in ns: the instant of the event being run.
func (n *Net) Now() int64 { return n.now }

// Seat returns seat p's attachment.
func (n *Net) Seat(p int) *Seat { return &n.seats[p] }

// Crashed reports whether the fault plan has crashed seat p by now. A
// crashed seat receives nothing and its sends fail; its driver should stop
// scheduling callbacks for it.
func (n *Net) Crashed(p int) bool {
	at, ok := n.inj.CrashAtNS(p)
	return ok && n.now >= at
}

// At schedules fn to run at virtual time at (now, if at is in the past).
func (n *Net) At(at int64, fn func()) {
	n.events.Push(max(at, n.now), netEvent{fn: fn})
}

// Every is a ticker: fn runs each periodNS from now on until it returns
// false.
func (n *Net) Every(periodNS int64, fn func() bool) {
	n.At(n.now+periodNS, func() {
		if fn() {
			n.Every(periodNS, fn)
		}
	})
}

// Step advances to the earliest pending event and runs it: a callback, or
// a frame's arrival at its seat. A frame for a seat that is still working
// waits until the seat is free, behind the frames already waiting, the way
// an inbox queues behind a blocked serve loop. It returns false when
// nothing is pending.
func (n *Net) Step() bool {
	if n.events.Len() == 0 {
		return false
	}
	var ev netEvent
	n.now, ev = n.events.Pop()
	switch to := ev.msg.To; {
	case ev.fn != nil:
		ev.fn()
	case n.Crashed(to): // lost with its seat
	case n.seats[to].busyUntil > n.now:
		n.events.Push(n.seats[to].busyUntil, ev)
	default:
		n.Deliver(to, ev.msg)
	}
	if s := n.worked; s != nil {
		s.busyUntil, s.elapsed, n.worked = n.now+s.elapsed, 0, nil
	}
	return true
}

// Seat is one place's attachment to a Net.
type Seat struct {
	net       *Net
	place     int
	elapsed   int64 // virtual time the code at this seat has spent during the current event
	busyUntil int64 // frames arriving before this wait
}

var _ comm.Endpoint = (*Seat)(nil)

// Work makes the code running at this seat spend d ns of virtual time, as
// a blocking call would: what it sends afterwards, during the same event,
// departs d later, and frames for the seat wait until then.
func (s *Seat) Work(d int64) {
	s.elapsed += d
	s.net.worked = s
}

// Place implements comm.Endpoint.
func (s *Seat) Place() int { return s.place }

// Send implements comm.Endpoint: the frame arrives after the link latency
// plus whatever delay the injector adds, unless the injector loses it.
// Like a datagram socket, Send reports success for a frame that will be
// lost; only an invalid destination or a crashed sender is an error.
func (s *Seat) Send(m comm.Message) error {
	n := s.net
	if m.To < 0 || m.To >= len(n.seats) {
		return fmt.Errorf("vtime: send to invalid seat %d", m.To)
	}
	if n.Crashed(s.place) {
		return comm.ErrClosed
	}
	m.From = s.place
	depart := n.now + s.elapsed
	if m.To == s.place {
		n.events.Push(depart, netEvent{msg: m})
		return nil
	}
	if n.inj.PartitionedAt(m.From, m.To, depart) || n.inj.Drop(m.From, m.To) {
		return nil
	}
	copies := 1
	if n.inj.Duplicate(m.From, m.To) {
		copies = 2
	}
	for ; copies > 0; copies-- {
		delay := n.latencyNS + n.inj.SpikeNS(m.From, m.To) + n.inj.GrayNS(m.From, m.To, depart)
		n.events.Push(depart+delay, netEvent{msg: m})
	}
	return nil
}

// Inbox implements comm.Endpoint with a channel nothing is ever sent on:
// frames reach a seat through Net.Deliver, not by a goroutine receiving.
func (s *Seat) Inbox() <-chan comm.Message { return nil }

// Close implements comm.Endpoint; a seat holds nothing to release.
func (s *Seat) Close() error { return nil }
