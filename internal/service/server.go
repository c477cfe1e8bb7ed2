package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"distws/internal/comm"
	"distws/internal/member"
	"distws/internal/metrics"
	"distws/internal/task"
)

// Server is the service front door at place 0 of a compute cluster:
// a long-lived event loop that admits streamed job submissions from
// client seats, schedules them across executor places with weighted
// deficit round robin, and accounts every admitted job exactly once
// through executor joins, drains, and failures.
//
// Seat layout: places 0..Places-1 are the compute cluster (0 = this
// server, 1..Places-1 executors running node.Executor); every transport
// seat >= Places is a client, allowed only to submit jobs and receive
// replies. The same comm transports carry both roles, so a client is
// just another mesh peer.
type Server struct {
	// Node is the transport attachment at place 0.
	Node comm.Endpoint
	// Places is the compute cluster size (server + executors). Transport
	// seats at or beyond Places are client seats.
	Places int
	// Tenants is the admission/fair-share contract per tenant id.
	Tenants map[uint32]TenantConfig
	// Registry resolves job task names and checks their arguments at
	// admission; nil uses task.DefaultRegistry.
	Registry *task.Registry
	// Counters receives aggregate job/membership accounting; nil discards
	// it.
	Counters *metrics.Counters
	// Stats receives per-tenant accounting; nil disables.
	Stats *Stats
	// Window caps outstanding jobs per executor (default 8).
	Window int
	// Quantum scales the DRR credit per scheduler visit (default 1).
	Quantum int
	// RetryAfter is the silence window after which outstanding jobs are
	// re-dispatched (at-least-once; replies dedupe). Default 5s.
	RetryAfter time.Duration
	// Heartbeat, when > 0, arms the membership failure detector: it sweeps
	// at this cadence, executors beat at it, and a place silent beyond the
	// adaptive timeout (the per-link inter-arrival EWMA times the
	// suspect/down multipliers, floored at Heartbeat) moves alive →
	// suspect → down. Zero leaves failure detection to transport errors.
	Heartbeat time.Duration
	// Absent lists executor places that will announce with KindJoin later.
	Absent []int
	// Clock returns the server-relative time in ns; nil uses the wall
	// clock since Serve started. Deadlines are interpreted on this clock.
	Clock func() int64
	// Logf reports lifecycle events; nil is silent.
	Logf func(format string, a ...any)

	adm *Admission
	fs  *FairShare
	seq uint64 // dispatch ids minted so far, one per admitted job

	// The dispatch loop's state (dispatch.go).
	members *member.Table     // the only record of who is alive, suspect, draining
	live    map[uint64]*entry // every live job by dispatch id
	load    []int             // jobs registered at each place
	shed    []bool            // places that refused a send during this pump
	cursor  int               // where the next slot search starts
	rearm   bool              // dispatch progressed during this step
	began   time.Time         // time zero of the wall clock, when Clock is nil

	drainInit, drainOnce sync.Once
	drainCh              chan struct{}
}

// ErrServerClosed is returned by Serve after a graceful drain completes.
var ErrServerClosed = errors.New("service: server drained and closed")

func (s *Server) logf(format string, a ...any) {
	if s.Logf != nil {
		s.Logf(format, a...)
	}
}

// drained returns the channel Drain closes. Either method may run first,
// on any goroutine, so whichever does creates it.
func (s *Server) drained() chan struct{} {
	s.drainInit.Do(func() { s.drainCh = make(chan struct{}) })
	return s.drainCh
}

// stopping reports whether Drain has been called.
func (s *Server) stopping() bool {
	select {
	case <-s.drained():
		return true
	default:
		return false
	}
}

// Drain begins a graceful shutdown from any goroutine (the daemon's
// SIGTERM handler), before or during Serve: new submissions are nacked
// with NackDraining, every already-admitted job still completes, then
// executors are released and Serve returns ErrServerClosed. Idempotent.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.logf("server: drain requested")
		close(s.drained())
	})
}

// start validates the front door, fills in the defaults and seeds the
// membership table of its cluster: every executor not listed in Absent
// starts alive. What steps the dispatch loop afterwards is a driver: Serve,
// or Simulate on virtual time.
func (s *Server) start() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("service: Server needs at least one tenant config")
	}
	if s.Node == nil {
		return fmt.Errorf("service: Server needs a Node")
	}
	if s.Places < 2 {
		return fmt.Errorf("service: Server over %d places, want >= 2", s.Places)
	}
	if s.Window <= 0 {
		s.Window = 8
	}
	if s.RetryAfter <= 0 {
		s.RetryAfter = 5 * time.Second
	}
	if s.Counters == nil {
		s.Counters = new(metrics.Counters)
	}
	s.adm = NewAdmission(s.Tenants)
	s.fs = NewFairShare(s.Quantum, s.adm.Weights())
	s.members = member.NewTable(s.Places, 0, s.Heartbeat.Nanoseconds())
	s.live = make(map[uint64]*entry)
	s.load = make([]int, s.Places)
	s.shed = make([]bool, s.Places)
	s.cursor = 1
	s.began = time.Now()
	// Absent places stay Unknown in the table so their eventual KindJoin
	// is a first contact, not a stale rejoin.
	for p := 1; p < s.Places; p++ {
		if !slices.Contains(s.Absent, p) {
			s.members.SeedAlive(p, 0)
		}
	}
	return nil
}

// Serve runs the front door until ctx is cancelled (hard stop: queued jobs
// are nacked back) or a Drain completes (every admitted job finished). It
// must be called once.
func (s *Server) Serve(ctx context.Context) error {
	if err := s.start(); err != nil {
		return err
	}
	err := s.run(ctx)
	if err == nil {
		return ErrServerClosed
	}
	if ctx.Err() != nil {
		// Hard stop: bounce every job that is still waiting to go out.
		for _, it := range s.fs.DrainAll() {
			if _, live := s.live[it.Seq]; live {
				delete(s.live, it.Seq)
				s.adm.Complete(it.Job.Tenant)
				s.reject(it.Client, it.Job, NackDraining, 0)
			}
		}
	}
	return err
}

// reject nacks a submission back to its client.
func (s *Server) reject(client int, j Job, code NackCode, retryNS int64) {
	s.Counters.JobsRejected.Add(1)
	if s.Stats != nil {
		s.Stats.Tenant(j.Tenant).Rejected.Add(1)
	}
	payload := AppendReply(nil, Reply{Tenant: j.Tenant, ID: j.ID, Code: code, RetryAfterNS: retryNS})
	s.Node.Send(comm.Message{Kind: comm.KindJobNack, To: client, Seq: j.ID, Payload: payload})
}

// onSubmit runs admission control on one streamed job and either queues
// it for dispatch or nacks it with a typed reason. The dispatch loop hands it
// every message from outside the compute cluster; only KindSubmit from a
// client seat means anything here.
func (s *Server) onSubmit(m comm.Message) {
	if m.Kind != comm.KindSubmit || m.From < s.Places {
		return
	}
	j, err := DecodeJob(m.Payload)
	if err != nil {
		s.logf("server: malformed submit from seat %d: %v", m.From, err)
		return // a bad frame poisons nothing; drop it
	}
	// The payload aliases the inbox buffer on TCP transports; copy what
	// outlives this message.
	j.Arg = append([]byte(nil), j.Arg...)
	now := s.now()
	s.Counters.JobsSubmitted.Add(1)
	if s.Stats != nil {
		s.Stats.Tenant(j.Tenant).Submitted.Add(1)
	}
	if s.stopping() {
		s.reject(m.From, j, NackDraining, 0)
		return
	}
	reg := s.Registry
	if reg == nil {
		reg = task.DefaultRegistry
	}
	check, ok := reg.Lookup(j.Name)
	if !ok {
		s.reject(m.From, j, NackUnknownTask, 0)
		return
	}
	if err := check(j.Arg); err != nil { // refused here, no executor ever sees it
		s.reject(m.From, j, NackBadArg, 0)
		return
	}
	if j.DeadlineNS > 0 && now >= j.DeadlineNS {
		s.reject(m.From, j, NackDeadline, 0)
		return
	}
	if err := s.adm.Admit(j.Tenant, now); err != nil {
		var ae *AdmissionError
		code, retry := NackOverload, int64(0)
		if errors.As(err, &ae) {
			code, retry = ae.Code, ae.RetryAfterNS
		}
		s.reject(m.From, j, code, retry)
		return
	}
	s.Counters.JobsAdmitted.Add(1)
	if s.Stats != nil {
		s.Stats.Tenant(j.Tenant).Admitted.Add(1)
	}
	s.seq++
	it := Item{Job: j, Client: m.From, AdmittedNS: now, Seq: s.seq}
	s.live[it.Seq] = &entry{it: it}
	s.fs.Push(j.Tenant, it)
}

// next pops the fair-share queue for the dispatch loop, expiring jobs whose
// deadline passed while they waited.
func (s *Server) next() (Item, bool) {
	for {
		it, ok := s.fs.Pop()
		if !ok {
			return Item{}, false
		}
		now := s.now()
		if it.Job.DeadlineNS > 0 && now >= it.Job.DeadlineNS {
			if _, live := s.live[it.Seq]; live { // a finished twin has had its reply already
				delete(s.live, it.Seq)
				s.adm.Complete(it.Job.Tenant)
				if s.Stats != nil {
					s.Stats.Tenant(it.Job.Tenant).Expired.Add(1)
				}
				s.reject(it.Client, it.Job, NackDeadline, 0)
			}
			continue
		}
		if s.Stats != nil {
			s.Stats.Tenant(it.Job.Tenant).QueueWait.Record(now - it.AdmittedNS)
		}
		return it, true
	}
}

// done acks a job's first completion to its client.
func (s *Server) done(it Item, result []byte) {
	s.adm.Complete(it.Job.Tenant)
	s.Counters.JobsCompleted.Add(1)
	if s.Stats != nil {
		st := s.Stats.Tenant(it.Job.Tenant)
		st.Completed.Add(1)
		st.Latency.Record(s.now() - it.AdmittedNS)
	}
	payload := AppendReply(nil, Reply{Tenant: it.Job.Tenant, ID: it.Job.ID, Result: result})
	s.Node.Send(comm.Message{Kind: comm.KindJobDone, To: it.Client, Seq: it.Job.ID, Payload: payload})
}
