// Package node is the serve loop of every compute place but the front
// door: Executor resolves the registry tasks place 0 dispatches to it,
// runs them and replies under the dispatch id, and speaks the membership
// protocol (joins, drains, heartbeats, rejoins) that lets the front door
// account each job exactly once. It speaks through a comm.Endpoint, so the
// same loop runs over the TCP mesh between processes, over in-process
// channels and on virtual time, and payloads stay opaque bytes end to
// end. The front door itself is service.Server.
//
// The loop is a step and a driver. Start, Handle and Beat hold all the
// logic and never wait; Serve waits on the transport and the wall clock
// and calls them, and service.Simulate calls the same methods from a
// virtual-time event loop (internal/vtime).
package node

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/comm"
	"distws/internal/member"
	"distws/internal/task"
)

// Executor is the serve loop of a non-front-door place: it resolves
// arriving spawn envelopes against the task registry, runs them, and
// replies with the result under the same Seq.
type Executor struct {
	// Node is this process's transport attachment.
	Node comm.Endpoint
	// Place is this executor's place id.
	Place int
	// Registry resolves envelope names; nil uses task.DefaultRegistry.
	Registry *task.Registry
	// Run executes one resolved task and returns the reply payload.
	Run func(name string, arg []byte) ([]byte, error)
	// Concurrency, when > 1, runs up to that many spawns at once in a
	// bounded worker pool — concurrent Finish scopes within one place, the
	// shape a long-lived service executor wants. Run must then be safe for
	// concurrent use. The default (<= 1) runs each spawn inline on the
	// serve loop.
	Concurrency int
	// Heartbeat, when > 0, beats KindHeartbeat to the front door at this
	// cadence so its failure detector can tell silence from death. Pair
	// with service.Server.Heartbeat.
	Heartbeat time.Duration
	// Incarnation is this executor's starting incarnation (default 1). A
	// restarted executor passes a strictly higher value than its previous
	// life so the cluster can tell a rejoin from a stale announcement.
	Incarnation uint32
	// Announce makes Serve send KindJoin before serving — required for
	// places the front door lists in Absent (runtime join) and for
	// rejoins after a restart.
	Announce bool
	// Logf reports lifecycle events; nil is silent.
	Logf func(format string, a ...any)

	inc      atomic.Uint32 // current incarnation (bumped on forced rejoin)
	draining atomic.Bool
	done     atomic.Int64   // spawns executed and replied to
	pool     chan struct{}  // worker slots when Concurrency > 1; nil runs each spawn inline
	wg       sync.WaitGroup // pool workers in flight
	failed   chan error     // the first pool worker to fail, for Serve's select
}

// incarnation returns the current incarnation, initializing it from the
// configured start value on first use.
func (e *Executor) incarnation() uint32 {
	if v := e.inc.Load(); v != 0 {
		return v
	}
	start := e.Incarnation
	if start == 0 {
		start = 1
	}
	e.inc.CompareAndSwap(0, start)
	return e.inc.Load()
}

// membershipPayload encodes this executor's current membership claim.
func (e *Executor) membershipPayload() []byte {
	st := member.Alive
	if e.draining.Load() {
		st = member.Draining
	}
	return member.AppendPayload(nil, member.Payload{Incarnation: e.incarnation(), State: st})
}

// Drain starts a graceful departure from outside the serve loop: the
// executor announces the drain, finishes what it is running, returns
// queued spawns, and exits once the front door releases it. Safe to call
// concurrently with Serve; idempotent.
func (e *Executor) Drain() {
	if e.draining.Swap(true) {
		return
	}
	if e.Logf != nil {
		e.Logf("node %d: drain requested", e.Place)
	}
	e.Node.Send(comm.Message{Kind: comm.KindDrain, To: 0, Payload: e.membershipPayload()})
}

// Start validates the executor and, with Announce set, sends the join
// announcement. A driver calls it once, before the first Handle.
func (e *Executor) Start() error {
	if e.Node == nil || e.Run == nil {
		return fmt.Errorf("node: Executor needs Node and Run")
	}
	// With Concurrency > 1 envelopes are still decoded and validated in
	// order by Handle, then run by up to Concurrency workers, each replying
	// under its own Seq as it finishes. Replies may therefore overtake each
	// other — the front door correlates by Seq, never by order.
	if e.Concurrency > 1 {
		e.pool = make(chan struct{}, e.Concurrency)
	}
	e.failed = make(chan error, 1)
	if e.Announce {
		if err := e.Node.Send(comm.Message{Kind: comm.KindJoin, To: 0, Payload: e.membershipPayload()}); err != nil {
			return fmt.Errorf("node %d: join announcement: %w", e.Place, err)
		}
	}
	return nil
}

// Beat sends one heartbeat to the front door. A driver calls it every
// Heartbeat, independently of Handle: a beat does not wait for the spawn
// being run. Lossy by design: a shed beat is superseded by the next.
func (e *Executor) Beat() {
	e.Node.Send(comm.Message{Kind: comm.KindHeartbeat, To: 0, Payload: e.membershipPayload()})
}

// Handle processes one message and reports whether the executor is over:
// released by KindShutdown, cut off from the front door, or failed. It is
// the whole of the serve loop's logic; what waits for the next message is
// a driver, Serve on the transport's inbox or service.Simulate on virtual
// time. Only the front door (place 0) is heeded: a client seat's spawn
// would skip admission, and its shutdown would stop a serving executor.
func (e *Executor) Handle(m comm.Message) (stop bool, err error) {
	if m.From != 0 {
		return false, nil
	}
	switch m.Kind {
	case comm.KindShutdown:
		return e.released()
	case comm.KindPlaceDown:
		// The transport lost its link to the front door: nothing will
		// dispatch here again, and the KindShutdown a front door sends
		// just before it closes may have been lost with the link.
		return e.released()
	case comm.KindHeartbeat:
		// The front door's ack carries its view of us.
		p, err := member.DecodePayload(m.Payload)
		if err == nil && p.State == member.Left && e.draining.Load() &&
			p.Incarnation >= e.incarnation() {
			// Our drain completed and the KindShutdown that said so, sent
			// once, never arrived.
			return e.released()
		}
		// Seeing Down means a partition healed under our feet: the
		// front door evicted us while we kept running. Bump the
		// incarnation and rejoin — exactly-once is safe because results
		// are deduplicated by dispatch id.
		if err == nil && p.State == member.Down && !e.draining.Load() &&
			p.Incarnation >= e.incarnation() {
			// The ack's incarnation proves the verdict is about our
			// CURRENT life — a stale ack about an incarnation we
			// already bumped past (queued behind a work backlog)
			// must not trigger another rejoin.
			e.inc.Add(1)
			if e.Logf != nil {
				e.Logf("node %d: front door saw us down, rejoining with incarnation %d", e.Place, e.inc.Load())
			}
			e.Node.Send(comm.Message{Kind: comm.KindJoin, To: 0, Payload: e.membershipPayload()})
		}
	case comm.KindSpawn:
		if e.draining.Load() {
			// Return the spawn unstarted; the front door re-homes it.
			return false, e.Node.Send(comm.Message{Kind: comm.KindSpawnNack, To: 0, Seq: m.Seq})
		}
		env, err := task.DecodeEnvelope(m.Payload)
		if err != nil {
			return false, err
		}
		reg := e.Registry
		if reg == nil {
			reg = task.DefaultRegistry
		}
		if _, ok := reg.Lookup(env.Name); !ok {
			return false, fmt.Errorf("node %d: unknown remote task %q", e.Place, env.Name)
		}
		if e.pool == nil {
			return false, e.run(m.Seq, env)
		}
		e.pool <- struct{}{} // bound the pool; blocks when saturated
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer func() { <-e.pool }()
			if err := e.run(m.Seq, env); err != nil {
				select {
				case e.failed <- err:
				default: // an earlier one already stops the loop
				}
			}
		}()
	}
	return false, nil
}

// released ends the serve loop once the front door lets the executor go.
func (e *Executor) released() (stop bool, err error) {
	e.wg.Wait() // pool workers reply before the goodbye
	if e.Logf != nil {
		e.Logf("node %d: done after %d spawn(s)", e.Place, e.done.Load())
	}
	return true, nil
}

// run executes one spawn and replies.
func (e *Executor) run(seq uint64, env *task.Envelope) error {
	reply, err := e.Run(env.Name, env.Arg)
	if err != nil {
		return err
	}
	if err := e.Node.Send(comm.Message{Kind: comm.KindSpawnDone, To: env.Origin, Seq: seq, Payload: reply}); err != nil {
		return err
	}
	e.done.Add(1)
	return nil
}

// Serve drives Handle from the transport's inbox, and Beat from a ticker,
// until a KindShutdown arrives, the transport reports the front door
// down, the inbox closes, or a spawn fails. It returns the number of
// spawns executed.
func (e *Executor) Serve() (int, error) {
	if err := e.Start(); err != nil {
		return 0, err
	}
	if e.Heartbeat > 0 {
		quit := make(chan struct{})
		defer close(quit)
		go func() {
			t := time.NewTicker(e.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-quit:
					return
				case <-t.C:
					e.Beat()
				}
			}
		}()
	}
	for {
		stop, err := true, error(nil)
		select {
		case err = <-e.failed:
		case m, ok := <-e.Node.Inbox():
			if ok {
				stop, err = e.Handle(m)
			}
		}
		if stop || err != nil {
			e.wg.Wait()
			return int(e.done.Load()), err
		}
	}
}
