// The wall-clock half of the dispatch regression tests: what has to run on
// real goroutines or real sockets. Everything that is a matter of schedule
// rather than of goroutines racing is in vtime_test.go, on virtual time
// over seed sweeps.
package service

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/task"
)

// dispatchRig is one front-door seat, one executor and one client seat on
// an in-process mesh.
type dispatchRig struct {
	mesh   *comm.Mesh
	reg    *task.Registry
	ctrs   metrics.Counters
	exDone chan error
}

func newDispatchRig() *dispatchRig {
	r := &dispatchRig{mesh: comm.NewMesh(3, 64, nil), reg: task.NewRegistry()}
	r.reg.Register("svc.double", func([]byte) error { return nil })
	_, r.exDone = startExecutor(r.mesh, 1, r.reg, 1, false)
	return r
}

func (r *dispatchRig) server() (*Server, chan error) {
	srv := &Server{
		Node: r.mesh.Endpoint(0), Places: 2, Tenants: map[uint32]TenantConfig{1: {}}, Registry: r.reg,
		Counters: &r.ctrs, RetryAfter: 100 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()
	return srv, done
}

// awaitEnd waits for a drained Serve and the executors it releases to
// wind down.
func awaitEnd(t *testing.T, done chan error, exDone ...chan error) {
	t.Helper()
	wait := func(name string, ch chan error, want error) {
		select {
		case err := <-ch:
			if !errors.Is(err, want) {
				t.Fatalf("%s returned %v, want %v", name, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still running 5s after Drain", name)
		}
	}
	wait("Serve", done, ErrServerClosed)
	for _, ch := range exDone {
		wait("executor", ch, nil)
	}
}

// TestLostSpawnIsResentUnderHeartbeats is PR 20's defect (C): a KindSpawn
// is silently lost on its way to a live executor that beats faster than
// RetryAfter. Heartbeats and the detector's tick must not keep restarting
// the retry window, or the job is never re-sent. It runs on virtual time
// over a seed sweep.
func TestLostSpawnIsResentUnderHeartbeats(t *testing.T) {
	t.Run("Server", lostSpawnUnderHeartbeats)
}

// TestDrainBeforeServe pins that a Drain which beats Serve to the start
// (the daemon's SIGTERM goroutine is running before Serve is called) is
// not lost.
func TestDrainBeforeServe(t *testing.T) {
	r := newDispatchRig()
	srv := &Server{Node: r.mesh.Endpoint(0), Places: 2, Tenants: map[uint32]TenantConfig{1: {}}, Registry: r.reg}
	srv.Drain()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()
	awaitEnd(t, done, r.exDone)
}

// TestDrainConcurrent races two Drains against each other during Serve:
// they are one drain, and Serve returns ErrServerClosed once. Run with
// -race.
func TestDrainConcurrent(t *testing.T) {
	r := newDispatchRig()
	srv, done := r.server()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); srv.Drain() }()
	}
	wg.Wait()
	awaitEnd(t, done, r.exDone)
}

// TestServerExecutorMesh runs the front door over a loopback TCP mesh, as
// distws-serve and distws-load do: the client seat joins before the
// executor, every job is answered once with its result, and the drain's
// KindShutdown releases the executor.
func TestServerExecutorMesh(t *testing.T) {
	const places, jobs = 2, 10
	reg := task.NewRegistry()
	reg.Register("svc.double", func([]byte) error { return nil })
	var ctrs metrics.Counters
	lns := make([]net.Listener, places+1)
	addrs := make([]string, places+1)
	for seat := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[seat], addrs[seat] = ln, ln.Addr().String()
	}
	join := func(seat int, ctrs *metrics.Counters) *comm.TCPMesh {
		m, err := comm.ListenMeshTCP(addrs, seat, comm.MeshOptions{Listener: lns[seat], Counters: ctrs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	front := join(0, &ctrs)
	c := NewClient(join(places, nil), 0)
	ex := &node.Executor{Node: join(1, nil), Place: 1, Registry: reg,
		Run: func(_ string, arg []byte) ([]byte, error) { return u64(binary.BigEndian.Uint64(arg) * 2), nil }}
	exDone := make(chan error, 1)
	go func() { _, err := ex.Serve(); exDone <- err }()
	if err := front.AwaitPeers([]int{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	srv := &Server{Node: front, Places: places, Tenants: map[uint32]TenantConfig{1: {}}, Registry: reg,
		Counters: &ctrs, RetryAfter: 2 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := uint64(0); i < jobs; i++ {
		r, err := c.Call(ctx, Job{Tenant: 1, Name: "svc.double", Arg: u64(i)})
		if err != nil || r.Code != OK || binary.BigEndian.Uint64(r.Result) != i*2 {
			t.Fatalf("job %d: reply %+v err %v", i, r, err)
		}
	}
	if got := ctrs.JobsCompleted.Load(); got != jobs {
		t.Fatalf("JobsCompleted = %d, want %d", got, jobs)
	}
	srv.Drain()
	awaitEnd(t, done, exDone)
}

// shedNode wraps the front door's comm.Endpoint and sheds the first
// shedLeft[p] spawn sends to each place p with a typed BackpressureError,
// counting every spawn attempt.
type shedNode struct {
	comm.Endpoint
	mu         sync.Mutex
	shedLeft   map[int]int
	spawnSends map[int]int
}

func (s *shedNode) Send(m comm.Message) error {
	if m.Kind == comm.KindSpawn {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.spawnSends[m.To]++
		if s.shedLeft[m.To] > 0 {
			s.shedLeft[m.To]--
			return &comm.BackpressureError{Place: m.To}
		}
	}
	return s.Endpoint.Send(m)
}

func (s *shedNode) sends(p int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawnSends[p]
}

// runBackpressured streams jobs through a front door with two executors
// whose spawn sends shed per the plan, checks that every job is answered
// once with its result, and returns the counters and the shim.
func runBackpressured(t *testing.T, shedLeft map[int]int, jobs int) (*metrics.Counters, *shedNode) {
	t.Helper()
	const places = 3
	m := comm.NewMesh(places+1, 64, nil)
	reg := task.NewRegistry()
	reg.Register("svc.double", func([]byte) error { return nil })
	_, ex1 := startExecutor(m, 1, reg, 1, false)
	_, ex2 := startExecutor(m, 2, reg, 1, false)

	shim := &shedNode{Endpoint: m.Endpoint(0), shedLeft: shedLeft, spawnSends: map[int]int{}}
	var ctrs metrics.Counters
	srv := &Server{Node: shim, Places: places, Tenants: map[uint32]TenantConfig{1: {}}, Registry: reg,
		Counters: &ctrs, RetryAfter: 100 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()

	c := NewClient(m.Endpoint(places), 0)
	replies := make([]<-chan Reply, jobs)
	for i := range replies {
		ch, err := c.Submit(Job{Tenant: 1, Name: "svc.double", Arg: u64(uint64(i))})
		if err != nil {
			t.Fatal(err)
		}
		replies[i] = ch
	}
	for i, ch := range replies {
		select {
		case r := <-ch:
			if r.Code != OK || binary.BigEndian.Uint64(r.Result) != uint64(i)*2 {
				t.Fatalf("job %d: reply %+v", i, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d never answered", i)
		}
	}
	if got := ctrs.JobsCompleted.Load(); got != int64(jobs) {
		t.Fatalf("JobsCompleted = %d, want %d: a job completed twice or not at all", got, jobs)
	}
	srv.Drain()
	awaitEnd(t, done, ex1, ex2)
	return &ctrs, shim
}

// TestDispatchBackpressureFallsOver pins the typed-shed path: a place
// that sheds every spawn with BackpressureError is skipped — not treated
// as dead, not hammered, not fatal — and the work lands on its peer.
func TestDispatchBackpressureFallsOver(t *testing.T) {
	const jobs = 12
	ctrs, shim := runBackpressured(t, map[int]int{1: 1 << 30}, jobs)
	if ctrs.Backpressure.Load() == 0 {
		t.Fatalf("Backpressure counter never incremented")
	}
	if got := ctrs.TasksReExecuted.Load(); got != 0 {
		t.Fatalf("TasksReExecuted = %d: a shed is not a failure, nothing ran twice", got)
	}
	if got := ctrs.PlacesLost.Load(); got != 0 {
		t.Fatalf("PlacesLost = %d: a shed must not mark the place down", got)
	}
	// Retry-storm guard: the front door may probe the shedding place once
	// per pump, never spin on it.
	if got := shim.sends(1); got > 4*jobs {
		t.Fatalf("place 1 probed %d times for %d jobs: retry storm", got, jobs)
	}
}

// TestDispatchBackpressureBackoff pins the all-shed path: with every
// executor shedding, jobs park in the fair-share queue and go out after
// the backoff — no livelock, no error, nothing lost.
func TestDispatchBackpressureBackoff(t *testing.T) {
	const jobs = 12
	ctrs, shim := runBackpressured(t, map[int]int{1: 8, 2: 8}, jobs)
	if ctrs.Backpressure.Load() != 16 {
		t.Fatalf("Backpressure = %d, want 16 (every configured shed consumed)", ctrs.Backpressure.Load())
	}
	if got := ctrs.TasksReExecuted.Load(); got != 0 {
		t.Fatalf("TasksReExecuted = %d, want 0", got)
	}
	total := shim.sends(1) + shim.sends(2)
	// 16 sheds + one real send per job + a bounded number of silent-period
	// retries; far below a storm.
	if total > 16+4*jobs {
		t.Fatalf("%d spawn sends for %d jobs with 16 sheds: retry storm", total, jobs)
	}
}
