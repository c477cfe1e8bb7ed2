// Package member is the dynamic-membership layer: an epoch/incarnation
// membership table with a heartbeat-based failure detector, usable over
// any transport. node.Dispatcher keeps the one Table of a cluster (for
// the batch coordinator and the job service alike); node.Executor speaks
// the Payload codec in its beats, joins and drains.
//
// It replaces the fail-stop "sticky dead" model — where a place that
// misses traffic is down forever and the cluster only shrinks — with a
// partition-tolerant state machine:
//
//	unknown → alive → suspect → down → alive (rejoin, bumped incarnation)
//	                 ↘ draining → left (graceful departure)
//
// A place that falls silent is first *suspected* (its outstanding work
// is left alone), then declared *down* (work is re-dispatched) only
// after a second, longer timeout. A down place is not evicted: when the
// partition heals it rejoins by announcing itself with a bumped
// incarnation number, SWIM-style, which distinguishes a genuinely new
// process from delayed messages of the old one. Stale announcements
// (incarnation not newer than what the table already saw at down time)
// are rejected.
//
// # Adaptive timeouts
//
// Like the adapt policy's per-victim latency EWMA, the detector keeps a
// per-peer EWMA of heartbeat inter-arrival gaps and derives its
// timeouts from it: suspect after SuspectMult×gap, down after
// DownMult×gap, floored at MinTimeout. A peer on a slow or gray link
// earns a proportionally longer grace period instead of being declared
// down by a fixed global constant.
//
// The table is clock-agnostic: callers pass nanosecond timestamps, so
// the simulator can drive it with virtual time and the runtime with
// wall time, and transitions are a pure function of the observation
// sequence — deterministic under a deterministic schedule.
package member

import (
	"fmt"
	"sync"
)

// State is one place's membership state.
type State uint8

const (
	// Unknown is a provisioned seat that has not joined yet.
	Unknown State = iota
	// Alive is a healthy member.
	Alive
	// Suspect is a member that missed heartbeats but is not yet
	// declared down; its work is not re-dispatched.
	Suspect
	// Down is a member declared failed (or unreachable). It may rejoin
	// with a bumped incarnation.
	Down
	// Draining is a member departing gracefully: it refuses new work
	// but its in-flight work is still expected to complete.
	Draining
	// Left is a member that completed a graceful departure.
	Left
)

var stateNames = [...]string{
	Unknown:  "unknown",
	Alive:    "alive",
	Suspect:  "suspect",
	Down:     "down",
	Draining: "draining",
	Left:     "left",
}

// String returns the stable wire name of the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Eligible reports whether a member in this state may be handed new
// work.
func (s State) Eligible() bool { return s == Alive }

// Transition is one observed state change, returned so callers can
// count and log membership churn.
type Transition struct {
	Place       int
	From, To    State
	Incarnation uint32
	AtNS        int64
}

// Config tunes the failure detector. The zero value disables timeouts
// entirely (no Tick-driven transitions), which is the legacy fail-stop
// behaviour.
type Config struct {
	// MinTimeoutNS floors both adaptive timeouts, guarding against a
	// burst of fast heartbeats shrinking the gap EWMA to nothing.
	MinTimeoutNS int64
	// SuspectMult: silence longer than SuspectMult×gapEWMA moves an
	// alive peer to suspect. Zero picks 4.
	SuspectMult int64
	// DownMult: silence longer than DownMult×gapEWMA moves a suspect
	// peer to down. Zero picks 8. Must exceed SuspectMult.
	DownMult int64
}

func (c Config) suspectMult() int64 {
	if c.SuspectMult <= 0 {
		return 4
	}
	return c.SuspectMult
}

func (c Config) downMult() int64 {
	if c.DownMult <= 0 {
		return 8
	}
	return c.DownMult
}

// gapAlpha is the EWMA smoothing factor for heartbeat inter-arrival
// gaps, matching the adapt controller's latency EWMA.
const gapAlpha = 0.25

type row struct {
	state       State
	incarnation uint32
	// lastHeardNS is when the place last gave a sign of life. Every way
	// into Alive or Draining (SeedAlive, Join, Heartbeat, Drain) stamps it,
	// so a row the detector looks at always has one, and 0 is an instant
	// like any other: a place seeded while the clock reads 0 that never
	// beats is as silent as one seeded later.
	lastHeardNS int64
	gapEWMA     float64 // smoothed heartbeat inter-arrival gap, ns
}

// Table is the membership table one coordinator (or peer) maintains
// over a fixed address space of provisioned seats. Safe for concurrent
// use. Every state change bumps the table epoch, so "has anything
// changed" is one comparison.
type Table struct {
	mu    sync.Mutex
	cfg   Config
	self  int
	epoch uint64
	rows  []row
}

// NewTable provisions a table for places seats, with self alive and
// every other seat unknown until it joins or is seeded with SeedAlive.
func NewTable(places, self int, cfg Config) *Table {
	if places <= 0 || self < 0 || self >= places {
		panic(fmt.Sprintf("member: NewTable(%d, %d)", places, self))
	}
	t := &Table{cfg: cfg, self: self, rows: make([]row, places)}
	t.rows[self] = row{state: Alive, incarnation: 1}
	return t
}

// SeedAlive marks place alive at incarnation 1 without a join message,
// for members known present at startup (the legacy fixed-cluster case).
func (t *Table) SeedAlive(place int, nowNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.rows[place]
	if r.state == Alive {
		return
	}
	t.epoch++
	r.state = Alive
	if r.incarnation == 0 {
		r.incarnation = 1
	}
	r.lastHeardNS = nowNS
}

// Join processes a join/rejoin announcement from place at incarnation
// inc. A first join admits any incarnation ≥ 1; a rejoin after Down or
// Left requires a strictly newer incarnation than the table recorded,
// rejecting replayed announcements from the failed process. Returns the
// transition and whether the announcement was accepted.
func (t *Table) Join(place int, inc uint32, nowNS int64) (Transition, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if place < 0 || place >= len(t.rows) || inc == 0 {
		return Transition{}, false
	}
	r := &t.rows[place]
	switch r.state {
	case Unknown:
		// First contact: any live incarnation is news.
	case Down, Left:
		if inc <= r.incarnation {
			return Transition{}, false // stale announcement from the dead process
		}
	case Suspect:
		// An explicit join refutes the suspicion even at the same
		// incarnation.
	case Alive, Draining:
		if inc <= r.incarnation {
			return Transition{}, false // duplicate
		}
		// The process restarted faster than we noticed it die.
	}
	tr := Transition{Place: place, From: r.state, To: Alive, Incarnation: inc, AtNS: nowNS}
	t.epoch++
	r.state = Alive
	r.incarnation = inc
	r.lastHeardNS = nowNS
	r.gapEWMA = 0
	return tr, true
}

// Heartbeat processes one heartbeat from place at incarnation inc,
// refreshing its liveness and the gap EWMA. A heartbeat refutes
// suspicion; from Down it is accepted only with a newer incarnation
// (that is a rejoin). Returns a non-zero Transition when the state
// changed.
func (t *Table) Heartbeat(place int, inc uint32, nowNS int64) (Transition, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if place < 0 || place >= len(t.rows) || inc == 0 {
		return Transition{}, false
	}
	r := &t.rows[place]
	switch r.state {
	case Alive, Draining:
		if inc < r.incarnation {
			return Transition{}, false
		}
		if gap := float64(nowNS - r.lastHeardNS); gap > 0 {
			if r.gapEWMA == 0 {
				r.gapEWMA = gap
			} else {
				r.gapEWMA += gapAlpha * (gap - r.gapEWMA)
			}
		}
		r.lastHeardNS = nowNS
		r.incarnation = inc
		return Transition{}, true
	case Suspect:
		if inc < r.incarnation {
			return Transition{}, false
		}
		tr := Transition{Place: place, From: Suspect, To: Alive, Incarnation: inc, AtNS: nowNS}
		t.epoch++
		r.state = Alive
		r.incarnation = inc
		r.lastHeardNS = nowNS
		return tr, true
	case Down, Left, Unknown:
		if r.state != Unknown && inc <= r.incarnation {
			return Transition{}, false // echo of the failed process
		}
		tr := Transition{Place: place, From: r.state, To: Alive, Incarnation: inc, AtNS: nowNS}
		t.epoch++
		r.state = Alive
		r.incarnation = inc
		r.lastHeardNS = nowNS
		r.gapEWMA = 0
		return tr, true
	}
	return Transition{}, false
}

// Drain moves place to Draining: no new work, in-flight work still
// expected. Returns false if the place was not alive or suspect.
func (t *Table) Drain(place int, nowNS int64) (Transition, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if place < 0 || place >= len(t.rows) {
		return Transition{}, false
	}
	r := &t.rows[place]
	if r.state != Alive && r.state != Suspect {
		return Transition{}, false
	}
	tr := Transition{Place: place, From: r.state, To: Draining, Incarnation: r.incarnation, AtNS: nowNS}
	t.epoch++
	r.state = Draining
	r.lastHeardNS = nowNS
	return tr, true
}

// Left completes a graceful departure. Returns false unless the place
// was draining.
func (t *Table) Left(place int, nowNS int64) (Transition, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if place < 0 || place >= len(t.rows) || t.rows[place].state != Draining {
		return Transition{}, false
	}
	r := &t.rows[place]
	tr := Transition{Place: place, From: Draining, To: Left, Incarnation: r.incarnation, AtNS: nowNS}
	t.epoch++
	r.state = Left
	return tr, true
}

// MarkDown force-declares place down, bypassing the detector — the path
// for transport-level failure notices (connection reset, handshake
// loss). Returns false if the place was already down, left, or unknown.
func (t *Table) MarkDown(place int, nowNS int64) (Transition, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if place < 0 || place >= len(t.rows) {
		return Transition{}, false
	}
	r := &t.rows[place]
	if r.state != Alive && r.state != Suspect && r.state != Draining {
		return Transition{}, false
	}
	tr := Transition{Place: place, From: r.state, To: Down, Incarnation: r.incarnation, AtNS: nowNS}
	t.epoch++
	r.state = Down
	return tr, true
}

// Tick sweeps the table at nowNS, applying the adaptive timeouts:
// silent alive peers become suspect, silent suspect peers become down.
// The self seat never times out. Returns every transition, in place
// order. With a zero Config (no MinTimeoutNS and no observed gaps) the
// sweep is a no-op.
func (t *Table) Tick(nowNS int64) []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Transition
	for p := range t.rows {
		if p == t.self {
			continue
		}
		r := &t.rows[p]
		if r.state != Alive && r.state != Suspect {
			continue
		}
		gap := r.gapEWMA
		if float64(t.cfg.MinTimeoutNS) > gap {
			gap = float64(t.cfg.MinTimeoutNS)
		}
		if gap <= 0 {
			continue
		}
		silence := float64(nowNS - r.lastHeardNS)
		var to State
		switch {
		case r.state == Alive && silence > gap*float64(t.cfg.suspectMult()):
			to = Suspect
		case r.state == Suspect && silence > gap*float64(t.cfg.downMult()):
			to = Down
		default:
			continue
		}
		out = append(out, Transition{Place: p, From: r.state, To: to, Incarnation: r.incarnation, AtNS: nowNS})
		t.epoch++
		r.state = to
	}
	return out
}

// State returns place's current state (Unknown for out-of-range).
func (t *Table) State(place int) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	if place < 0 || place >= len(t.rows) {
		return Unknown
	}
	return t.rows[place].state
}

// Incarnation returns the last incarnation recorded for place.
func (t *Table) Incarnation(place int) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if place < 0 || place >= len(t.rows) {
		return 0
	}
	return t.rows[place].incarnation
}

// Epoch returns the table epoch, bumped by every state change.
func (t *Table) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// AliveCount returns how many seats (including self) are alive.
func (t *Table) AliveCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.rows {
		if t.rows[i].state == Alive {
			n++
		}
	}
	return n
}
