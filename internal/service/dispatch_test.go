// The wall-clock half of the dispatch regression tests: what has to run on
// real goroutines. Everything that is a matter of schedule rather than of
// goroutines racing is in vtime_test.go, on virtual time over seed sweeps.
package service

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/task"
)

// loseFirstSpawn wraps a comm.Endpoint and swallows the first KindSpawn sent
// through it: Send reports success and nothing goes out.
type loseFirstSpawn struct {
	comm.Endpoint
	armed bool // set before the dispatcher starts; only its goroutine sends
}

func (f *loseFirstSpawn) Send(m comm.Message) error {
	if m.Kind == comm.KindSpawn && f.armed {
		f.armed = false
		return nil
	}
	return f.Endpoint.Send(m)
}

// dispatchRig is one dispatcher seat, one executor and one client seat on
// an in-process mesh, with the front door's sends going through front.
type dispatchRig struct {
	mesh   *comm.Mesh
	reg    *task.Registry
	front  *loseFirstSpawn
	ctrs   metrics.Counters
	exDone chan error
}

func newDispatchRig(hb time.Duration) *dispatchRig {
	r := &dispatchRig{mesh: comm.NewMesh(3, 64, nil), reg: task.NewRegistry(), exDone: make(chan error, 1)}
	r.reg.Register("rig.double", func([]byte) error { return nil })
	r.front = &loseFirstSpawn{Endpoint: r.mesh.Endpoint(0)}
	ex := &node.Executor{
		Node: r.mesh.Endpoint(1), Place: 1, Registry: r.reg, Heartbeat: hb,
		Run: func(_ string, arg []byte) ([]byte, error) {
			return u64(binary.BigEndian.Uint64(arg) * 2), nil
		},
	}
	go func() { _, err := ex.Serve(); r.exDone <- err }()
	return r
}

func (r *dispatchRig) server() (*Server, chan error) {
	srv := &Server{
		Node: r.front, Places: 2, Tenants: map[uint32]TenantConfig{1: {}}, Registry: r.reg,
		Counters: &r.ctrs, RetryAfter: 100 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()
	return srv, done
}

// awaitEnd waits for a drained Serve and the executor it releases to wind
// down.
func (r *dispatchRig) awaitEnd(t *testing.T, done chan error, d time.Duration) {
	t.Helper()
	for _, end := range []struct {
		name string
		ch   chan error
		want error
	}{{"Serve", done, ErrServerClosed}, {"executor", r.exDone, nil}} {
		select {
		case err := <-end.ch:
			if !errors.Is(err, end.want) {
				t.Fatalf("%s returned %v, want %v", end.name, err, end.want)
			}
		case <-time.After(d):
			t.Fatalf("%s still running %v after Drain", end.name, d)
		}
	}
}

// TestLostSpawnIsResentUnderHeartbeats is PR 20's defect (C), for both
// policies: a KindSpawn is silently lost on its way to a live executor
// that beats faster than RetryAfter. Heartbeats and the detector's tick
// must not keep restarting the retry window, or the item is never
// re-sent. The Server runs on virtual time over a seed sweep;
// Coordinator.Run blocks its caller, so it still runs on the wall clock,
// at one schedule.
func TestLostSpawnIsResentUnderHeartbeats(t *testing.T) {
	t.Run("Server", lostSpawnUnderHeartbeats)
	t.Run("Coordinator", func(t *testing.T) {
		const hb = 20 * time.Millisecond
		r := newDispatchRig(hb)
		r.front.armed = true
		var results []uint64
		coord := &node.Coordinator{
			Node: r.front, Places: 2, Counters: &r.ctrs, TaskName: "rig.double",
			RetryAfter: 100 * time.Millisecond, Heartbeat: hb,
			OnResult: func(_ int, res []byte) { results = append(results, binary.BigEndian.Uint64(res)) },
		}
		done := make(chan error, 1)
		go func() { done <- coord.Run([]node.Batch{{ID: 0, Arg: u64(21)}}) }()
		select {
		case err := <-done:
			if err != nil || len(results) != 1 || results[0] != 42 {
				t.Fatalf("Run: err %v, results %v", err, results)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Run still waiting after 5s (%d retries)", r.ctrs.Retries.Load())
		}
		if err := <-r.exDone; err != nil {
			t.Fatalf("executor: %v", err)
		}
		if r.ctrs.Retries.Load() < 1 {
			t.Errorf("Retries = 0: the lost spawn was never re-sent")
		}
		if got := r.ctrs.PlacesLost.Load(); got != 0 {
			t.Errorf("PlacesLost = %d: a lost message is not a lost place", got)
		}
	})
}

// TestDrainBeforeServe pins that a Drain which beats Serve to the start
// (the daemon's SIGTERM goroutine is running before Serve is called) is
// not lost.
func TestDrainBeforeServe(t *testing.T) {
	r := newDispatchRig(0)
	srv := &Server{Node: r.front, Places: 2, Tenants: map[uint32]TenantConfig{1: {}}, Registry: r.reg}
	srv.Drain()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()
	r.awaitEnd(t, done, 2*time.Second)
}

// TestDrainConcurrent races two Drains against each other during Serve:
// they are one drain, and Serve returns ErrServerClosed once. Run with
// -race.
func TestDrainConcurrent(t *testing.T) {
	r := newDispatchRig(0)
	srv, done := r.server()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); srv.Drain() }()
	}
	wg.Wait()
	r.awaitEnd(t, done, 2*time.Second)
}
