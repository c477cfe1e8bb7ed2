package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/obs"
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
// just another mesh peer or hub spoke.
type Server struct {
	// Node is the transport attachment at place 0.
	Node comm.Endpoint
	// Places is the compute cluster size (server + executors). Transport
	// seats at or beyond Places are client seats.
	Places int
	// Tenants is the admission/fair-share contract per tenant id.
	Tenants map[uint32]TenantConfig
	// Registry resolves job task names; nil uses task.DefaultRegistry.
	Registry *task.Registry
	// Counters receives aggregate job/membership accounting; nil disables.
	Counters *metrics.Counters
	// Stats receives per-tenant accounting; nil disables.
	Stats *Stats
	// Recorder receives job admit/reject/done events; nil records nothing.
	Recorder *obs.Recorder
	// Window caps outstanding jobs per executor (default 8).
	Window int
	// Quantum scales the DRR credit per scheduler visit (default 1).
	Quantum int
	// RetryAfter is the silence window after which outstanding jobs are
	// re-dispatched (at-least-once; replies dedupe). Default 5s.
	RetryAfter time.Duration
	// Heartbeat, when > 0, arms the membership failure detector exactly
	// as in node.Coordinator: executors beat at this cadence and silence
	// beyond the adaptive timeout marks them down.
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
	d   *node.Dispatcher[Item]
	seq uint64 // dispatch ids minted so far, one per admitted job

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

// start builds the front door as a node.Dispatcher policy. What steps the
// dispatcher afterwards is a driver: Serve, or Simulate on virtual time.
func (s *Server) start() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("service: Server needs at least one tenant config")
	}
	d, err := node.NewDispatcher(node.Config{
		Node: s.Node, Places: s.Places, Window: s.Window, RetryAfter: s.RetryAfter,
		Heartbeat: s.Heartbeat, Absent: s.Absent, Counters: s.Counters, Clock: s.Clock, Logf: s.Logf,
	}, node.Policy[Item]{
		Describe: func(it Item) node.Work {
			return node.Work{ID: it.Seq, Name: it.Job.Name, Arg: it.Job.Arg, Tenant: it.Job.Tenant}
		},
		Next:     s.next,
		Requeue:  func(it Item) { s.fs.Push(it.Job.Tenant, it) }, // its admission slot is still held
		Done:     s.done,
		Other:    s.onSubmit,
		Finished: func() bool { return s.stopping() && s.d.Live() == 0 },
		Wake:     s.drained(),
	})
	if err != nil {
		return err
	}
	s.d = d
	s.adm = NewAdmission(s.Tenants)
	s.fs = NewFairShare(s.Quantum, s.adm.Weights())
	return nil
}

// Serve runs the front door until ctx is cancelled (hard stop: queued jobs
// are nacked back) or a Drain completes (every admitted job finished). It
// must be called once.
func (s *Server) Serve(ctx context.Context) error {
	if err := s.start(); err != nil {
		return err
	}
	err := s.d.Run(ctx)
	if err == nil {
		return ErrServerClosed
	}
	if ctx.Err() != nil {
		// Hard stop: bounce every job that is still waiting to go out.
		for _, it := range s.fs.DrainAll() {
			if s.d.Drop(it.Seq) {
				s.adm.Complete(it.Job.Tenant)
				s.reject(it.Client, it.Job, NackDraining, 0)
			}
		}
	}
	return err
}

// record emits a job lifecycle event at the front door's track.
func (s *Server) record(kind obs.Kind, tenant uint32) {
	if s.Recorder.Enabled() {
		s.Recorder.Record(0, 0, kind, -1, int32(tenant), 0)
	}
}

// reject nacks a submission back to its client.
func (s *Server) reject(client int, j Job, code NackCode, retryNS int64) {
	if s.Counters != nil {
		s.Counters.JobsRejected.Add(1)
	}
	if s.Stats != nil {
		s.Stats.Tenant(j.Tenant).Rejected.Add(1)
	}
	s.record(obs.KindJobReject, j.Tenant)
	payload := AppendReply(nil, Reply{Tenant: j.Tenant, ID: j.ID, Code: code, RetryAfterNS: retryNS})
	s.Node.Send(comm.Message{Kind: comm.KindJobNack, To: client, Seq: j.ID, Payload: payload})
}

// onSubmit runs admission control on one streamed job and either queues
// it for dispatch or nacks it with a typed reason. The dispatcher hands it
// only messages from client seats; compute places do not submit.
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
	now := s.d.Now()
	if s.Counters != nil {
		s.Counters.JobsSubmitted.Add(1)
	}
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
	if _, ok := reg.Lookup(j.Name); !ok {
		s.reject(m.From, j, NackUnknownTask, 0)
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
	if s.Counters != nil {
		s.Counters.JobsAdmitted.Add(1)
	}
	if s.Stats != nil {
		s.Stats.Tenant(j.Tenant).Admitted.Add(1)
	}
	s.record(obs.KindJobAdmit, j.Tenant)
	s.seq++
	it := Item{Job: j, Client: m.From, AdmittedNS: now, Seq: s.seq}
	s.d.Add(it)
	s.fs.Push(j.Tenant, it)
}

// next pops the fair-share queue for the dispatcher, expiring jobs whose
// deadline passed while they waited.
func (s *Server) next() (Item, bool) {
	for {
		it, ok := s.fs.Pop()
		if !ok {
			return Item{}, false
		}
		now := s.d.Now()
		if it.Job.DeadlineNS > 0 && now >= it.Job.DeadlineNS {
			if s.d.Drop(it.Seq) { // a finished twin has had its reply already
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
	if s.Counters != nil {
		s.Counters.JobsCompleted.Add(1)
	}
	if s.Stats != nil {
		st := s.Stats.Tenant(it.Job.Tenant)
		st.Completed.Add(1)
		st.Latency.Record(s.d.Now() - it.AdmittedNS)
	}
	s.record(obs.KindJobDone, it.Job.Tenant)
	payload := AppendReply(nil, Reply{Tenant: it.Job.Tenant, ID: it.Job.ID, Result: result})
	s.Node.Send(comm.Message{Kind: comm.KindJobDone, To: it.Client, Seq: it.Job.ID, Payload: payload})
}
