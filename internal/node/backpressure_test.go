package node

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/task"
)

// shedNode wraps a comm.Endpoint and sheds the first shedLeft[p] spawn sends
// to each place p with a typed BackpressureError, counting every spawn
// attempt — the harness for the coordinator's backpressure audit.
type shedNode struct {
	comm.Endpoint
	mu         sync.Mutex
	shedLeft   map[int]int
	spawnSends map[int]int
}

func (s *shedNode) Send(m comm.Message) error {
	if m.Kind == comm.KindSpawn {
		s.mu.Lock()
		if s.spawnSends == nil {
			s.spawnSends = make(map[int]int)
		}
		s.spawnSends[m.To]++
		if s.shedLeft[m.To] > 0 {
			s.shedLeft[m.To]--
			s.mu.Unlock()
			return &comm.BackpressureError{Place: m.To}
		}
		s.mu.Unlock()
	}
	return s.Endpoint.Send(m)
}

func (s *shedNode) sends(p int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawnSends[p]
}

// runBackpressured drives a 3-place coordinator whose sends shed per the
// plan, with executors echoing id*3, and returns the counters and shim.
func runBackpressured(t *testing.T, shedLeft map[int]int, batches int) (*metrics.Counters, *shedNode) {
	t.Helper()
	const places = 3
	m := comm.NewMesh(places, 64, nil)
	reg := task.NewRegistry()
	reg.Register("bp.echo", func([]byte) error { return nil })
	exDone := make(chan error, places-1)
	for p := 1; p < places; p++ {
		ex := &Executor{
			Node:     m.Endpoint(p),
			Place:    p,
			Registry: reg,
			Run: func(name string, arg []byte) ([]byte, error) {
				return u64(binary.BigEndian.Uint64(arg) * 3), nil
			},
		}
		go func() {
			_, err := ex.Serve()
			exDone <- err
		}()
	}

	shim := &shedNode{Endpoint: m.Endpoint(0), shedLeft: shedLeft}
	var ctrs metrics.Counters
	work := make([]Batch, batches)
	for i := range work {
		work[i] = Batch{ID: i, Arg: u64(uint64(i))}
	}
	results := map[int]uint64{}
	calls := map[int]int{}
	coord := &Coordinator{
		Node:     shim,
		Places:   places,
		Counters: &ctrs,
		TaskName: "bp.echo",
		OnResult: func(id int, res []byte) {
			calls[id]++
			results[id] = binary.BigEndian.Uint64(res)
		},
		RetryAfter: 100 * time.Millisecond,
	}
	if err := coord.Run(work); err != nil {
		t.Fatalf("coordinator under backpressure: %v", err)
	}
	for id := 0; id < batches; id++ {
		if calls[id] != 1 {
			t.Fatalf("batch %d accounted %d times, want exactly once", id, calls[id])
		}
		if results[id] != uint64(id*3) {
			t.Fatalf("batch %d result %d, want %d", id, results[id], id*3)
		}
	}
	for p := 1; p < places; p++ {
		select {
		case err := <-exDone:
			if err != nil {
				t.Fatalf("executor: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("executor %d never shut down", p)
		}
	}
	return &ctrs, shim
}

// TestDispatchBackpressureFallsOver pins the typed-shed path: a place
// that sheds every spawn with BackpressureError is skipped — not treated
// as dead, not hammered, not fatal — and the work lands on its peer.
func TestDispatchBackpressureFallsOver(t *testing.T) {
	const batches = 12
	ctrs, shim := runBackpressured(t, map[int]int{1: 1 << 30}, batches)
	if ctrs.Backpressure.Load() == 0 {
		t.Fatalf("Backpressure counter never incremented")
	}
	if got := ctrs.TasksReExecuted.Load(); got != 0 {
		t.Fatalf("TasksReExecuted = %d: a shed is not a failure, nothing ran twice", got)
	}
	if got := ctrs.PlacesLost.Load(); got != 0 {
		t.Fatalf("PlacesLost = %d: a shed must not mark the place down", got)
	}
	// Retry-storm guard: the coordinator may probe the shedding place once
	// per dispatch pass, never spin on it.
	if got := shim.sends(1); got > 4*batches {
		t.Fatalf("place 1 probed %d times for %d batches: retry storm", got, batches)
	}
}

// TestDispatchBackpressureBackoff pins the all-shed path: with every
// executor shedding, batches park in the backlog and go out after the
// backoff — no livelock, no error, nothing lost.
func TestDispatchBackpressureBackoff(t *testing.T) {
	const batches = 12
	ctrs, shim := runBackpressured(t, map[int]int{1: 8, 2: 8}, batches)
	if ctrs.Backpressure.Load() != 16 {
		t.Fatalf("Backpressure = %d, want 16 (every configured shed consumed)", ctrs.Backpressure.Load())
	}
	if got := ctrs.TasksReExecuted.Load(); got != 0 {
		t.Fatalf("TasksReExecuted = %d, want 0", got)
	}
	total := shim.sends(1) + shim.sends(2)
	// 16 sheds + one real send per batch + a bounded number of silent-period
	// retries; far below a storm.
	if total > 16+4*batches {
		t.Fatalf("%d spawn sends for %d batches with 16 sheds: retry storm", total, batches)
	}
}
