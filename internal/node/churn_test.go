// Front-door churn over a loopback TCP mesh: the heartbeat detector
// catching a gray failure the transport cannot see, and retries racing the
// concurrent loss of several places. The front door is service.Server,
// which imports this package, so these tests sit outside it.
package node_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/service"
	"distws/internal/task"
)

// meshRig is a loopback TCP mesh with places compute seats and one client
// seat after them, every seat joined to the front door, and a registry
// with one echo task. The front door's counters are ctrs.
type meshRig struct {
	nodes []*comm.TCPMesh // by seat; seat 0 is the front door
	reg   *task.Registry
	ctrs  metrics.Counters
}

func newMeshRig(t *testing.T, places int) *meshRig {
	t.Helper()
	r := &meshRig{reg: task.NewRegistry(), nodes: make([]*comm.TCPMesh, places+1)}
	r.reg.Register("test.echo", func([]byte) error { return nil })
	lns := make([]net.Listener, places+1)
	addrs := make([]string, places+1)
	for seat := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[seat], addrs[seat] = ln, ln.Addr().String()
	}
	for seat := range r.nodes {
		opts := comm.MeshOptions{Listener: lns[seat]}
		if seat == 0 {
			opts.Counters = &r.ctrs
		}
		m, err := comm.ListenMeshTCP(addrs, seat, opts)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[seat] = m
		t.Cleanup(func() { m.Close() })
	}
	if err := r.nodes[0].AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return r
}

// echoRun is the executor work function: reply with 3× the job's argument,
// after an optional delay that keeps the run alive long enough for the
// staged churn to land mid-flight.
func echoRun(delay time.Duration) func(string, []byte) ([]byte, error) {
	return func(_ string, arg []byte) ([]byte, error) {
		time.Sleep(delay)
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, binary.BigEndian.Uint64(arg)*3)
		return out, nil
	}
}

// serveJobs runs srv at the front door, submits jobs from the client
// seat, and checks the exactly-once contract: every job answered once
// with its result, and completed once at the front door. It then drains
// srv.
func serveJobs(t *testing.T, r *meshRig, srv *service.Server, jobs int) {
	t.Helper()
	srv.Node, srv.Registry, srv.Counters = r.nodes[0], r.reg, &r.ctrs
	srv.Tenants = map[uint32]service.TenantConfig{1: {}}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()

	c := service.NewClient(r.nodes[srv.Places], 0)
	replies := make([]<-chan service.Reply, jobs)
	for i := range replies {
		arg := make([]byte, 8)
		binary.BigEndian.PutUint64(arg, uint64(i))
		ch, err := c.Submit(service.Job{Tenant: 1, Name: "test.echo", Arg: arg})
		if err != nil {
			t.Fatal(err)
		}
		replies[i] = ch
	}
	for i, ch := range replies {
		select {
		case rep := <-ch:
			if rep.Code != service.OK || binary.BigEndian.Uint64(rep.Result) != uint64(i)*3 {
				t.Fatalf("job %d: reply %+v", i, rep)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("job %d never answered", i)
		}
	}
	if got := r.ctrs.JobsCompleted.Load(); got != int64(jobs) {
		t.Fatalf("JobsCompleted = %d, want %d: a job completed twice or not at all", got, jobs)
	}
	srv.Drain()
	select {
	case err := <-done:
		if !errors.Is(err, service.ErrServerClosed) {
			t.Fatalf("Serve after drain: %v, want ErrServerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never finished draining")
	}
}

// TestHeartbeatDetectorGrayFailure is the failure the transport cannot
// see: place 2's process stops serving but its connection stays open, so
// no KindPlaceDown ever fires. Only the heartbeat detector notices the
// silence, declares the place down, and re-dispatches its work.
func TestHeartbeatDetectorGrayFailure(t *testing.T) {
	r := newMeshRig(t, 3)

	exDone := make(chan error, 2)
	go func() {
		ex := &node.Executor{Node: r.nodes[1], Place: 1, Registry: r.reg,
			Run: echoRun(time.Millisecond), Heartbeat: 15 * time.Millisecond}
		_, err := ex.Serve()
		exDone <- err
	}()
	go func() {
		// Gray failure, driven through the executor's step API: beat until
		// the first job arrives (the detector has a last-heard baseline),
		// burn 60ms on it, then go silent with the connection still open.
		ex := &node.Executor{Node: r.nodes[2], Place: 2, Registry: r.reg,
			Run: echoRun(60 * time.Millisecond)}
		if err := ex.Start(); err != nil {
			exDone <- err
			return
		}
		beat := time.NewTicker(15 * time.Millisecond)
		defer beat.Stop()
		for {
			select {
			case <-beat.C:
				ex.Beat()
			case m := <-r.nodes[2].Inbox():
				_, err := ex.Handle(m)
				if err != nil || m.Kind == comm.KindSpawn {
					exDone <- err
					return
				}
			}
		}
	}()

	serveJobs(t, r, &service.Server{
		Places:     3,
		Heartbeat:  20 * time.Millisecond,
		RetryAfter: 10 * time.Second, // only the detector may recover this run
	}, 12)
	for i := 0; i < 2; i++ {
		if err := <-exDone; err != nil {
			t.Fatalf("executor: %v", err)
		}
	}
	if got := r.ctrs.HeartbeatMisses.Load(); got == 0 {
		t.Fatalf("the silent place was never suspected")
	}
	if got := r.ctrs.PlacesLost.Load(); got != 1 {
		t.Fatalf("PlacesLost = %d, want 1 (detector-declared down)", got)
	}
	if got := r.ctrs.TasksReExecuted.Load(); got == 0 {
		t.Fatalf("the dead place's outstanding jobs were never re-dispatched")
	}
}

// errCrashed is how a fail-stopped executor's Serve ends.
var errCrashed = errors.New("fail-stop")

// TestRetryRacesConcurrentCrashes fail-stops three of four executors at
// staggered points while a short retry window keeps re-sending outstanding
// work: the retry sweep races the markDown of several places, and every
// job must still be answered exactly once, by whoever survives. Run with
// -race.
func TestRetryRacesConcurrentCrashes(t *testing.T) {
	const places = 5
	r := newMeshRig(t, places)

	exDone := make(chan error, places-1)
	for p := 1; p < places; p++ {
		go func(p int) {
			run := echoRun(time.Millisecond)
			ex := &node.Executor{Node: r.nodes[p], Place: p, Registry: r.reg, Run: run}
			if p < places-1 {
				// Fail-stop on the (p+2)th job: the process dies and takes
				// its link along, with that job and its window unanswered.
				ran := 0
				ex.Run = func(name string, arg []byte) ([]byte, error) {
					if ran++; ran > p+1 {
						r.nodes[p].Close()
						return nil, errCrashed
					}
					return run(name, arg)
				}
			}
			_, err := ex.Serve()
			exDone <- err
		}(p)
	}

	serveJobs(t, r, &service.Server{Places: places, RetryAfter: 50 * time.Millisecond}, 30)
	for i := 0; i < places-1; i++ {
		if err := <-exDone; err != nil && !errors.Is(err, errCrashed) {
			t.Fatalf("executor: %v", err)
		}
	}
	if got := r.ctrs.PlacesLost.Load(); got != 3 {
		t.Fatalf("PlacesLost = %d, want 3", got)
	}
	if r.ctrs.TasksReExecuted.Load() == 0 {
		t.Fatalf("crashing three executors re-dispatched nothing")
	}
}
