package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/service"
	"distws/internal/task"
)

const (
	svcJobBytes   = 64
	svcTask       = "benchmark.echo"
	svcSeatServer = 0
	svcSeatExec   = 1
	svcSeatClient = 2
	svcSeats      = 3
	// svcCallTimeout bounds one job; a job that takes this long has
	// failed whatever its reply would say.
	svcCallTimeout = 20 * time.Second
)

// svcWorkload is the job service end to end on a loopback TCP mesh: the
// front door (service.Server), one node.Executor with P slots and one
// client seat whose P closed-loop callers, split over two tenants with
// fair-share weights 1:3, each wait for a reply before sending the next
// job. A job echoes its 64-byte argument; the first 8 bytes carry the
// job's index in the pass, which is how the harness-owned Executor.Run
// finds the job's span slots.
type svcWorkload struct {
	e       env
	callers int
	jobs    [][]byte // one pass's arguments, seeded; caller c owns a contiguous share

	meshes      []*comm.TCPMesh
	closeMeshes func()
	counters    metrics.Counters
	server      *service.Server
	client      *service.Client
	serveErr    chan error
	execErr     chan error

	// Span slots of the pass in flight, indexed by job: executor entry and
	// exit on the tracer clock. Written by executor goroutines and read by
	// the caller after the reply; the TCP hop between them is not an edge
	// the race detector sees, hence atomics.
	tr       atomic.Pointer[tracer]
	execIn   []atomic.Int64
	execOut  []atomic.Int64
	rejected atomic.Int64

	attempted int64
	wall      time.Duration // Σ pass time
	// Accumulated over the traced run: the submit→reply split per traced
	// job, the caller-observed latency per untraced job.
	tracedPasses                   int
	submitUS, toExecUS, fromExecUS []float64
	replyUS                        []float64
}

func newSvcWorkload(e env) *svcWorkload {
	w := &svcWorkload{e: e, callers: e.p, serveErr: make(chan error, 1), execErr: make(chan error, 1)}
	perCaller := 1024 / w.callers
	if e.quick {
		perCaller = 32
	}
	rng := rand.New(rand.NewSource(e.seed))
	w.jobs = make([][]byte, perCaller*w.callers)
	for i := range w.jobs {
		arg := make([]byte, svcJobBytes)
		rng.Read(arg) // math/rand's Read never fails
		binary.BigEndian.PutUint64(arg, uint64(i))
		w.jobs[i] = arg
	}
	w.execIn = make([]atomic.Int64, len(w.jobs))
	w.execOut = make([]atomic.Int64, len(w.jobs))
	return w
}

// echo is the executor body: the reply is the argument.
func (w *svcWorkload) echo(_ string, arg []byte) ([]byte, error) {
	tr := w.tr.Load()
	if tr == nil {
		return arg, nil
	}
	i := binary.BigEndian.Uint64(arg)
	w.execIn[i].Store(tr.now())
	defer func() { w.execOut[i].Store(tr.now()) }()
	return arg, nil
}

func (w *svcWorkload) setup() error {
	var err error
	if w.meshes, w.closeMeshes, err = loopbackMesh(svcSeats, &w.counters); err != nil {
		return err
	}

	reg := task.NewRegistry()
	reg.Register(svcTask, func([]byte) error { return nil })
	ex := &node.Executor{Node: w.meshes[svcSeatExec], Place: svcSeatExec, Registry: reg, Run: w.echo, Concurrency: w.e.p}
	go func() {
		_, err := ex.Serve()
		w.execErr <- err
	}()
	w.server = &service.Server{
		Node:     w.meshes[svcSeatServer],
		Places:   2, // front door + one executor; seat 2 is the client
		Tenants:  map[uint32]service.TenantConfig{1: {Weight: 1}, 2: {Weight: 3}},
		Registry: reg,
		Counters: &w.counters,
	}
	go func() { w.serveErr <- w.server.Serve(context.Background()) }()
	w.client = service.NewClient(w.meshes[svcSeatClient], svcSeatServer)

	_, err = w.pass(nil) // warm-up: dials the lazy links
	return err
}

// jobSplit is where one traced job's submit→reply time went, in µs.
type jobSplit struct{ submit, toExec, fromExec float64 }

// call runs job i to its reply and reports whether the reply was right and
// how long the caller waited. With tracing on it records the job's spans:
// the job itself, Client.Submit inside it and the harness-owned
// Executor.Run, whose times arrive through the slots keyed by i.
func (w *svcWorkload) call(ctx context.Context, tr *tracer, root int32, i int, tenant uint32) (ok bool, lat time.Duration, split jobSplit) {
	job := service.Job{Tenant: tenant, Name: svcTask, Arg: w.jobs[i]}
	start := time.Now()
	t0 := tr.now()
	ch, err := w.client.Submit(job)
	t1 := tr.now()
	if err != nil {
		return false, 0, split
	}
	var rep service.Reply
	select {
	case rep = <-ch:
	case <-w.client.Done():
		return false, 0, split
	case <-ctx.Done():
		return false, 0, split
	}
	t4 := tr.now()
	lat = time.Since(start)
	if rep.Code != service.OK {
		w.rejected.Add(1)
		return false, lat, split
	}
	if !bytes.Equal(rep.Result, w.jobs[i]) {
		return false, lat, split
	}
	if tr != nil {
		t2, t3 := w.execIn[i].Load(), w.execOut[i].Load()
		id := tr.add("harness", "job", root, int64(i), t0, t4)
		tr.add("service", "Client.Submit", id, int64(i), t0, t1)
		tr.add("node", "Executor.Run", id, int64(i), t2, t3)
		// Run may start before Submit has returned to its caller (another
		// CPU is already carrying the frame); the wait is then zero.
		split = jobSplit{float64(t1-t0) / 1e3, float64(max(0, t2-t1)) / 1e3, float64(t4-t3) / 1e3}
	}
	return true, lat, split
}

func (w *svcWorkload) pass(tr *tracer) (pass, error) {
	w.tr.Store(tr)
	ctx, cancel := context.WithTimeout(context.Background(), svcCallTimeout)
	defer cancel()
	per := len(w.jobs) / w.callers
	lats := make([][]float64, w.callers)
	splits := make([][]jobSplit, w.callers)
	var failed atomic.Int64
	root := tr.begin("harness", "svc-mesh pass", -1, int64(w.tracedPasses))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := uint32(1 + c%2)
			for i := c * per; i < (c+1)*per; i++ {
				ok, lat, split := w.call(ctx, tr, root, i, tenant)
				switch {
				case !ok:
					failed.Add(1)
				case tr != nil:
					splits[c] = append(splits[c], split)
				case w.e.traced:
					lats[c] = append(lats[c], float64(lat.Nanoseconds())/1e3)
				}
			}
		}()
	}
	wg.Wait()
	p := pass{wall: time.Since(start), attempted: int64(len(w.jobs)), failed: failed.Load()}
	tr.end(root)
	p.units = p.attempted - p.failed
	w.attempted += p.attempted
	if err := w.alive(); err != nil {
		return p, err
	}
	w.wall += p.wall
	if tr != nil {
		w.tracedPasses++
	}
	for c := range lats {
		w.replyUS = append(w.replyUS, lats[c]...)
		for _, sp := range splits[c] {
			w.submitUS = append(w.submitUS, sp.submit)
			w.toExecUS = append(w.toExecUS, sp.toExec)
			w.fromExecUS = append(w.fromExecUS, sp.fromExec)
		}
	}
	return p, nil
}

// alive reports a server or executor loop that has exited mid-run.
func (w *svcWorkload) alive() error {
	select {
	case err := <-w.serveErr:
		return fmt.Errorf("server stopped: %v", err)
	case err := <-w.execErr:
		return fmt.Errorf("executor stopped: %v", err)
	default:
		return nil
	}
}

func (w *svcWorkload) layer(r rows, _ float64) error {
	writes, frames := w.coalescing()
	s := w.counters.Snapshot()
	jobs := float64(w.attempted)
	r.set("comm.svc_frames_per_write", float64(frames)/float64(writes), "ratio")
	r.set("comm.svc_messages_per_job", float64(s.Messages)/jobs, "count")
	r.set("comm.svc_bytes_per_job", float64(s.BytesTransferred)/jobs, "B")
	r.set("service.submit_call_us_p50", median(w.submitUS), "us")
	r.set("service.to_executor_us_p50", median(w.toExecUS), "us")
	r.set("service.from_executor_us_p50", median(w.fromExecUS), "us")
	r.set("service.rejected_per_s", float64(w.rejected.Load())/w.wall.Seconds(), "1/s")
	asc := sorted(w.replyUS)
	r.set("service.reply_us_p50", percentile(asc, 50), "us")
	r.set("service.reply_us_p99", percentile(asc, 99), "us")
	return nil
}

// coalescing sums conn.Write calls and frames over the three seats.
func (w *svcWorkload) coalescing() (writes, frames int64) {
	for _, m := range w.meshes {
		wr, fr := m.CoalescingStats()
		writes, frames = writes+wr, frames+fr
	}
	return writes, frames
}

// teardown drains the service and checks conservation on the server side:
// it completed exactly what it admitted. (On the client side every
// attempted job either came back right or was counted as failed.)
func (w *svcWorkload) teardown() error {
	var errs []error
	if w.server != nil {
		w.server.Drain()
		if err := waitErr(w.serveErr, "server"); !errors.Is(err, service.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("server after drain: %v", err))
		}
		if err := waitErr(w.execErr, "executor"); err != nil {
			errs = append(errs, fmt.Errorf("executor: %w", err))
		}
	}
	if w.closeMeshes != nil {
		w.closeMeshes() // the drain has flushed every reply already
	}
	if w.client != nil {
		<-w.client.Done()
	}
	s := w.counters.Snapshot()
	if s.JobsAdmitted != s.JobsCompleted {
		errs = append(errs, fmt.Errorf("conservation: server admitted %d jobs, completed %d", s.JobsAdmitted, s.JobsCompleted))
	}
	return errors.Join(errs...)
}

// waitErr receives a loop's exit status, or reports that it never exited.
func waitErr(ch <-chan error, who string) error {
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		return fmt.Errorf("%s did not stop within 10s", who)
	}
}
