// Regression tests for the defects the two hand-copied dispatch loops had
// drifted into before node.Dispatcher replaced them. Each runs under a
// deadline, so a regression fails in seconds instead of hanging.
package service

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/task"
)

// What a firstSpawn does to the first KindSpawn sent through it.
const (
	deliver = iota
	shed    // refuse it with a typed BackpressureError
	lose    // report success and send nothing
)

// firstSpawn wraps a comm.Node and diverts the first KindSpawn.
type firstSpawn struct {
	comm.Node
	fate int
	hit  atomic.Bool
}

func (f *firstSpawn) Send(m comm.Message) error {
	if m.Kind == comm.KindSpawn && f.fate != deliver && !f.hit.Swap(true) {
		if f.fate == shed {
			return &comm.BackpressureError{Place: m.To}
		}
		return nil
	}
	return f.Node.Send(m)
}

// dispatchRig is one dispatcher seat, one executor and one client seat on
// an in-process mesh, with the front door's sends going through front.
type dispatchRig struct {
	mesh   *comm.Mesh
	reg    *task.Registry
	front  *firstSpawn
	ctrs   metrics.Counters
	ran    atomic.Int64 // executor runs finished, twins included
	exDone chan error
}

func newDispatchRig(fate, conc int, hb, jobTime time.Duration) *dispatchRig {
	r := &dispatchRig{mesh: comm.NewMesh(3, 64, nil), reg: task.NewRegistry(), exDone: make(chan error, 1)}
	r.reg.Register("rig.double", func([]byte) error { return nil })
	r.front = &firstSpawn{Node: meshNode{r.mesh.Endpoint(0)}, fate: fate}
	ex := &node.Executor{
		Node: meshNode{r.mesh.Endpoint(1)}, Place: 1, Registry: r.reg, Concurrency: conc, Heartbeat: hb,
		Run: func(_ string, arg []byte) ([]byte, error) {
			time.Sleep(jobTime)
			r.ran.Add(1)
			return u64(binary.BigEndian.Uint64(arg) * 2), nil
		},
	}
	go func() { _, err := ex.Serve(); r.exDone <- err }()
	return r
}

func (r *dispatchRig) server(hb time.Duration) (*Server, chan error) {
	srv := &Server{
		Node: r.front, Places: 2, Tenants: map[uint32]TenantConfig{1: {}}, Registry: r.reg,
		Counters: &r.ctrs, RetryAfter: 100 * time.Millisecond, Heartbeat: hb,
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

// TestShedJobIsResent is defect (A): the only job in the system is shed
// once with typed backpressure, so nothing is outstanding when the retry
// timer fires. The timer must pump the queue anyway.
func TestShedJobIsResent(t *testing.T) {
	r := newDispatchRig(shed, 1, 0, 0)
	srv, done := r.server(0)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	rep, err := NewClient(meshNode{r.mesh.Endpoint(2)}, 0).Call(ctx, Job{Tenant: 1, Name: "rig.double", Arg: u64(21)})
	if err != nil || rep.Code != OK || binary.BigEndian.Uint64(rep.Result) != 42 {
		t.Fatalf("shed job: reply %+v err %v", rep, err)
	}
	if got := r.ctrs.Backpressure.Load(); got != 1 {
		t.Fatalf("Backpressure = %d, want 1 (the shed is counted)", got)
	}
	srv.Drain()
	r.awaitEnd(t, done, 3*time.Second)
}

// TestLongJobCompletesOnce is defect (B): a job that runs for longer than
// RetryAfter is re-sent while its first copy is still running. The first
// reply must finish it (not be dropped as a stale twin of the re-send),
// and the twins' replies must not reach the client.
func TestLongJobCompletesOnce(t *testing.T) {
	r := newDispatchRig(deliver, 4, 0, 250*time.Millisecond)
	srv, done := r.server(0)
	client := r.mesh.Endpoint(2)
	submit := func(id uint64) {
		t.Helper()
		job := AppendJob(nil, Job{Tenant: 1, ID: id, Name: "rig.double", Arg: u64(id)})
		if err := client.Send(comm.Message{Kind: comm.KindSubmit, To: 0, Seq: id, Payload: job}); err != nil {
			t.Fatal(err)
		}
	}
	// await returns the ids of every reply the client seat sees up to and
	// including the one for id.
	await := func(id uint64) (seen []uint64) {
		t.Helper()
		for deadline := time.After(3 * time.Second); ; {
			select {
			case m := <-client.Inbox():
				rep, err := DecodeReply(m.Payload)
				if err != nil || m.Kind != comm.KindJobDone || binary.BigEndian.Uint64(rep.Result) != 2*rep.ID {
					t.Fatalf("reply %+v (kind %v) err %v", rep, m.Kind, err)
				}
				if seen = append(seen, rep.ID); rep.ID == id {
					return seen
				}
			case <-deadline:
				t.Fatalf("no reply for job %d in 3s: a 250ms job under a 100ms retry window (%d retries)",
					id, r.ctrs.Retries.Load())
			}
		}
	}
	submit(7)
	await(7)
	// Let every re-sent twin of job 7 finish, then push a second job
	// through: the server reads its inbox in order, so by the time job 8 is
	// answered it has seen all of job 7's late completions.
	for deadline := time.Now().Add(3 * time.Second); r.ran.Load() < 1+r.ctrs.Retries.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs finished for 1 send + %d re-sends", r.ran.Load(), r.ctrs.Retries.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if r.ran.Load() < 2 {
		t.Fatalf("job 7 ran once: it never outlasted the retry window, the test staged nothing")
	}
	submit(8)
	if seen := await(8); len(seen) != 1 {
		t.Fatalf("client saw replies %v after job 7 was answered, want only job 8's", seen)
	}
	srv.Drain()
	r.awaitEnd(t, done, 3*time.Second)
	if got := r.ctrs.JobsCompleted.Load(); got != 2 {
		t.Fatalf("JobsCompleted = %d, want 2 (each job exactly once)", got)
	}
}

// TestLostSpawnIsResentUnderHeartbeats is defect (C), for both policies: a
// KindSpawn is silently lost on its way to a live executor that beats
// faster than RetryAfter. Heartbeats and the detector's tick must not keep
// restarting the retry window, or the item is never re-sent.
func TestLostSpawnIsResentUnderHeartbeats(t *testing.T) {
	const hb = 20 * time.Millisecond
	policies := map[string]func(t *testing.T, r *dispatchRig){
		"Coordinator": func(t *testing.T, r *dispatchRig) {
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
		},
		"Server": func(t *testing.T, r *dispatchRig) {
			srv, done := r.server(hb)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			rep, err := NewClient(meshNode{r.mesh.Endpoint(2)}, 0).Call(ctx, Job{Tenant: 1, Name: "rig.double", Arg: u64(21)})
			if err != nil || rep.Code != OK || binary.BigEndian.Uint64(rep.Result) != 42 {
				t.Fatalf("reply %+v err %v (%d retries)", rep, err, r.ctrs.Retries.Load())
			}
			srv.Drain()
			r.awaitEnd(t, done, 3*time.Second)
		},
	}
	for name, run := range policies {
		t.Run(name, func(t *testing.T) {
			r := newDispatchRig(lose, 1, hb, 0)
			run(t, r)
			if r.ctrs.Retries.Load() < 1 {
				t.Errorf("Retries = 0: the lost spawn was never re-sent")
			}
			if got := r.ctrs.PlacesLost.Load(); got != 0 {
				t.Errorf("PlacesLost = %d: a lost message is not a lost place", got)
			}
		})
	}
}

// TestDrainBeforeServe pins that a Drain which beats Serve to the start
// (the daemon's SIGTERM goroutine is running before Serve is called) is
// not lost.
func TestDrainBeforeServe(t *testing.T) {
	r := newDispatchRig(deliver, 1, 0, 0)
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
	r := newDispatchRig(deliver, 1, 0, 0)
	srv, done := r.server(0)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); srv.Drain() }()
	}
	wg.Wait()
	r.awaitEnd(t, done, 2*time.Second)
}
