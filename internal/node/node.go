// Package node implements the dispatch protocol between place 0 and the
// executors of a cluster: at-least-once delivery of registry tasks with
// exactly-once result accounting, through executor joins, drains and
// failures. The protocol is transport-agnostic — it speaks through a
// comm.Endpoint, so the same code runs over the star (tcp-hub) and
// peer-to-peer (tcp-mesh) topologies, and payloads stay opaque bytes end
// to end.
//
// Dispatcher (dispatch.go) is the one event loop of place 0: membership,
// per-executor windows, re-sends and the liveness of ids. Its two users
// are policies over it: Coordinator, here, runs a fixed batch list to
// completion for cmd/distws-node; service.Server queues streamed jobs of
// many tenants for cmd/distws-serve. Executor is the serve loop of every
// other place, the same for both.
//
// Each loop is a step and a driver. Dispatcher.Step and Executor.Start,
// Handle and Beat hold all the logic and never wait; Dispatcher.Run and
// Executor.Serve wait on the transport and the wall clock and call them,
// and service.Simulate calls the same methods from a virtual-time event
// loop (internal/vtime).
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/comm"
	"distws/internal/member"
	"distws/internal/metrics"
	"distws/internal/task"
)

// ErrNoSurvivors is the sentinel for a dispatch that found every executor
// down or draining while the coordinator has no RunLocal fallback. Match
// with errors.Is; the concrete error is a *NoSurvivorsError carrying the
// batch id.
var ErrNoSurvivors = errors.New("node: no surviving executor")

// NoSurvivorsError reports which batch could not be placed anywhere.
type NoSurvivorsError struct{ Batch int }

func (e *NoSurvivorsError) Error() string {
	return fmt.Sprintf("node: batch %d undeliverable: every executor is down or draining and no RunLocal fallback is set", e.Batch)
}

// Is makes errors.Is(err, ErrNoSurvivors) match.
func (e *NoSurvivorsError) Is(target error) bool { return target == ErrNoSurvivors }

// Batch is one unit of dispatchable work: an id the result accounting is
// keyed on (carried on the wire as Message.Seq) and an opaque argument for
// the registered task.
type Batch struct {
	ID  int
	Arg []byte
}

// Coordinator runs a fixed set of batches to completion from place 0: a
// Dispatcher policy that queues them first in, first out, works a share of
// them itself, and falls back to itself when no executor is left. At-least-
// once dispatch still accounts every batch exactly once.
type Coordinator struct {
	// Node is this process's transport attachment (place 0).
	Node comm.Endpoint
	// Places is the cluster size.
	Places int
	// Counters receives protocol accounting (PlacesLost, TasksReExecuted,
	// Retries); nil disables it.
	Counters *metrics.Counters
	// TaskName is the registry name executors resolve arriving spawns to.
	TaskName string
	// RunLocal executes one batch on the coordinator itself — the local
	// share of the work, and the fallback when no executor survives.
	// Optional: when nil every batch is dispatched remotely and a dispatch
	// with no surviving executor fails with ErrNoSurvivors instead of
	// falling back.
	RunLocal func(arg []byte) ([]byte, error)
	// OnResult consumes each batch's result payload, exactly once per id.
	OnResult func(id int, result []byte)
	// RetryAfter is the silence window after which outstanding batches are
	// re-sent. Defaults to 5s.
	RetryAfter time.Duration
	// Window caps how many batches may be outstanding at one executor.
	// Batches beyond every survivor's window wait in a coordinator-side
	// backlog and are pumped out as results come back, so a slow (or
	// silently partitioned) place never hoards unbounded work. Defaults
	// to 8.
	Window int
	// Heartbeat, when > 0, arms the membership failure detector: executors
	// are expected to beat at roughly this cadence (Executor.Heartbeat),
	// the detector sweeps at it, and a place whose silence exceeds the
	// adaptive timeout (per-link inter-arrival EWMA × the suspect/down
	// multipliers, floored at Heartbeat) moves alive → suspect → down.
	// Zero disables the detector: places are only marked down by transport
	// errors, as before.
	Heartbeat time.Duration
	// Absent lists places that are not present at start and will announce
	// themselves with KindJoin later (runtime join). They receive no work
	// until they do.
	Absent []int
	// Logf reports recovery events; nil is silent.
	Logf func(format string, a ...any)

	backlog []Batch // dispatchable work waiting for a window slot
	pending int     // batches whose result is not yet accounted
}

// Run dispatches batches across the cluster and blocks until every result
// is accounted, surviving executor crashes and lost messages. Every
// Places'th batch runs locally (the coordinator is a worker too); the rest
// go round robin over places 1..Places-1. On return it broadcasts
// KindShutdown to the surviving executors.
func (c *Coordinator) Run(batches []Batch) error {
	if c.OnResult == nil {
		return fmt.Errorf("node: Coordinator needs OnResult")
	}
	d, err := NewDispatcher(Config{
		Node: c.Node, Places: c.Places, Window: c.Window, RetryAfter: c.RetryAfter,
		Heartbeat: c.Heartbeat, Absent: c.Absent, Counters: c.Counters, Logf: c.Logf,
	}, Policy[Batch]{
		Describe: func(b Batch) Work { return Work{ID: uint64(b.ID), Name: c.TaskName, Arg: b.Arg} },
		Next: func() (b Batch, ok bool) {
			if ok = len(c.backlog) > 0; ok {
				b, c.backlog = c.backlog[0], c.backlog[1:]
			}
			return b, ok
		},
		Requeue:  func(b Batch) { c.backlog = append(c.backlog, b) },
		Done:     c.finish,
		Stranded: c.runHere,
		Finished: func() bool { return c.pending == 0 },
	})
	if err != nil {
		return err
	}
	c.pending = len(batches)
	c.backlog = nil
	var local []Batch
	for i, b := range batches {
		if i%c.Places == 0 && c.RunLocal != nil {
			local = append(local, b)
			continue
		}
		d.Add(b)
		c.backlog = append(c.backlog, b)
	}
	// Fill the executors' windows first, so they work while the
	// coordinator runs its own share.
	if err := d.Pump(); err != nil {
		return err
	}
	for _, b := range local {
		result, err := c.RunLocal(b.Arg)
		if err != nil {
			return err
		}
		c.finish(b, result)
	}
	return d.Run(context.Background())
}

// runHere executes a batch no executor is left to take: on the coordinator
// itself, or not at all if RunLocal is unset.
func (c *Coordinator) runHere(b Batch) ([]byte, error) {
	if c.RunLocal == nil {
		return nil, &NoSurvivorsError{Batch: b.ID}
	}
	return c.RunLocal(b.Arg)
}

// finish accounts a batch result; the dispatcher has already dropped twins.
func (c *Coordinator) finish(b Batch, result []byte) {
	c.OnResult(b.ID, result)
	c.pending--
}

// Executor is the serve loop of a non-coordinator place: it resolves
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
	// concurrent use. The default (<= 1) runs each spawn inline on the serve
	// loop, where CrashAfter fail-stops at an exact batch count; in the
	// pool the crash/drain knobs trigger on completion order, which is
	// approximate by nature.
	Concurrency int
	// CrashAfter > 0 makes the executor fail-stop (return without a
	// goodbye) after that many batches — the chaos knob.
	CrashAfter int
	// DrainAfter > 0 makes the executor start a graceful drain after that
	// many batches: it announces KindDrain, nacks queued spawns back to
	// the coordinator, and departs when released with KindShutdown.
	DrainAfter int
	// Heartbeat, when > 0, beats KindHeartbeat to the coordinator at this
	// cadence so its failure detector can tell silence from death. Pair
	// with Coordinator.Heartbeat.
	Heartbeat time.Duration
	// Incarnation is this executor's starting incarnation (default 1). A
	// restarted executor passes a strictly higher value than its previous
	// life so the cluster can tell a rejoin from a stale announcement.
	Incarnation uint32
	// Announce makes Serve send KindJoin before serving — required for
	// places the coordinator lists in Absent (runtime join) and for
	// rejoins after a restart.
	Announce bool
	// Logf reports lifecycle events; nil is silent.
	Logf func(format string, a ...any)

	inc      atomic.Uint32 // current incarnation (bumped on forced rejoin)
	draining atomic.Bool
	done     atomic.Int64   // batches executed and replied to
	pool     chan struct{}  // worker slots when Concurrency > 1; nil runs each spawn inline
	wg       sync.WaitGroup // pool workers in flight
	failed   chan error     // the first pool worker to fail (or, nil, to fail-stop), for Serve's select
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
// queued batches, and exits once the coordinator releases it. Safe to
// call concurrently with Serve; idempotent.
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
	// other — the dispatcher correlates by Seq, never by order.
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

// Beat sends one heartbeat to the dispatcher. A driver calls it every
// Heartbeat, independently of Handle: a beat does not wait for the batch
// being run. Lossy by design: a shed beat is superseded by the next.
func (e *Executor) Beat() {
	e.Node.Send(comm.Message{Kind: comm.KindHeartbeat, To: 0, Payload: e.membershipPayload()})
}

// Handle processes one message and reports whether the executor is over:
// released by KindShutdown, stopped by its CrashAfter budget (a fail-stop,
// so without a goodbye and without an error), or failed. It is the whole
// of the serve loop's logic; what waits for the next message is a driver,
// Serve on the transport's inbox or service.Simulate on virtual time.
func (e *Executor) Handle(m comm.Message) (stop bool, err error) {
	switch m.Kind {
	case comm.KindShutdown:
		return e.released()
	case comm.KindHeartbeat:
		// The coordinator's ack carries its view of us.
		p, err := member.DecodePayload(m.Payload)
		if err == nil && p.State == member.Left && e.draining.Load() &&
			p.Incarnation >= e.incarnation() {
			// Our drain completed and the KindShutdown that said so, sent
			// once, never arrived.
			return e.released()
		}
		// Seeing Down means a partition healed under our feet: the
		// coordinator evicted us while we kept running. Bump the
		// incarnation and rejoin — exactly-once is safe because results
		// are deduplicated by batch id.
		if err == nil && p.State == member.Down && !e.draining.Load() &&
			p.Incarnation >= e.incarnation() {
			// The ack's incarnation proves the verdict is about our
			// CURRENT life — a stale ack about an incarnation we
			// already bumped past (queued behind a work backlog)
			// must not trigger another rejoin.
			e.inc.Add(1)
			if e.Logf != nil {
				e.Logf("node %d: coordinator saw us down, rejoining with incarnation %d", e.Place, e.inc.Load())
			}
			e.Node.Send(comm.Message{Kind: comm.KindJoin, To: 0, Payload: e.membershipPayload()})
		}
	case comm.KindSpawn:
		if e.draining.Load() {
			// Return the batch unstarted; the coordinator re-homes it.
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
			// Inline, so CrashAfter fail-stops at an exact batch count.
			return e.run(m.Seq, env)
		}
		e.pool <- struct{}{} // bound the pool; blocks when saturated
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer func() { <-e.pool }()
			if stop, err := e.run(m.Seq, env); stop || err != nil {
				select {
				case e.failed <- err:
				default: // an earlier one already stops the loop
				}
			}
		}()
	}
	return false, nil
}

// released ends the serve loop once the coordinator lets the executor go.
func (e *Executor) released() (stop bool, err error) {
	e.wg.Wait() // pool workers reply before the goodbye
	if e.Logf != nil {
		e.Logf("node %d: done after %d batches", e.Place, e.done.Load())
	}
	return true, nil
}

// run executes one spawn and replies. It reports stop once the CrashAfter
// budget is spent.
func (e *Executor) run(seq uint64, env *task.Envelope) (stop bool, err error) {
	reply, err := e.Run(env.Name, env.Arg)
	if err != nil {
		return false, err
	}
	if err := e.Node.Send(comm.Message{Kind: comm.KindSpawnDone, To: env.Origin, Seq: seq, Payload: reply}); err != nil {
		return false, err
	}
	n := int(e.done.Add(1))
	if e.CrashAfter > 0 && n >= e.CrashAfter {
		if e.Logf != nil {
			e.Logf("node %d: fail-stop after %d batches", e.Place, n)
		}
		return true, nil
	}
	if e.DrainAfter > 0 && n >= e.DrainAfter {
		e.Drain()
	}
	return false, nil
}

// Serve drives Handle from the transport's inbox, and Beat from a ticker,
// until a KindShutdown arrives, the inbox closes, or the CrashAfter budget
// is spent. It returns the number of batches executed.
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
