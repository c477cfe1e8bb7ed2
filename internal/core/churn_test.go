package core

import (
	"errors"
	"testing"
	"time"

	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/sched"
)

// TestDrainPlaceGraceful drains a place mid-run via the fault plan's
// wall-clock schedule: the run completes exactly once, the moved tasks
// count as offloaded, and nothing is re-executed or counted lost.
func TestDrainPlaceGraceful(t *testing.T) {
	eachDequeKind(t, func(t *testing.T, k deque.Kind) {
		rt := chaosSum(t, Config{
			Cluster: chaosCluster(),
			Policy:  sched.DistWS,
			Seed:    7,
			Deque:   k,
			Fault: &fault.Plan{
				Drains: []fault.Drain{{Place: 1, AtNS: int64(500 * time.Microsecond)}},
			},
		}, 800)
		defer rt.Shutdown()
		// The drain timer fired mid-run; give its goroutine a beat to finish
		// flushing before reading the counters.
		time.Sleep(20 * time.Millisecond)
		s := rt.Metrics()
		if s.MembershipDrains != 1 {
			t.Fatalf("MembershipDrains = %d, want 1", s.MembershipDrains)
		}
		if s.TasksReExecuted != 0 {
			t.Fatalf("graceful drain re-executed %d tasks, want 0", s.TasksReExecuted)
		}
		if s.PlacesLost != 0 {
			t.Fatalf("graceful drain counted as place loss: %d", s.PlacesLost)
		}
	})
}

// TestDrainPlaceAPI exercises the synchronous entry point directly: the
// drained place refuses further drains, out-of-range ids error, and the
// last available place cannot be drained.
func TestDrainPlaceAPI(t *testing.T) {
	rt, err := New(Config{
		Cluster: chaosCluster(),
		Policy:  sched.DistWS,
		Seed:    7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	if err := rt.DrainPlace(99); err == nil {
		t.Fatalf("DrainPlace(99) should be rejected")
	}
	for p := 1; p < rt.Places(); p++ {
		if err := rt.DrainPlace(p); err != nil {
			t.Fatalf("DrainPlace(%d): %v", p, err)
		}
	}
	if err := rt.DrainPlace(0); err == nil {
		t.Fatalf("draining the last place should be refused")
	}
	if err := rt.DrainPlace(1); err == nil {
		t.Fatalf("draining a drained (now dead) place should error")
	}
	s := rt.Metrics()
	if s.MembershipDrains != int64(rt.Places()-1) {
		t.Fatalf("MembershipDrains = %d, want %d", s.MembershipDrains, rt.Places()-1)
	}
}

// TestJoinLateRuntime starts one place absent; it joins mid-run and the
// workload completes exactly once with no re-execution.
func TestJoinLateRuntime(t *testing.T) {
	rt := chaosSum(t, Config{
		Cluster: chaosCluster(),
		Policy:  sched.DistWS,
		Seed:    7,
		Fault: &fault.Plan{
			Joins: []fault.Join{{Place: 3, AtNS: int64(300 * time.Microsecond)}},
		},
	}, 800)
	defer rt.Shutdown()
	time.Sleep(5 * time.Millisecond)
	s := rt.Metrics()
	if s.MembershipJoins != 1 {
		t.Fatalf("MembershipJoins = %d, want 1", s.MembershipJoins)
	}
	if s.TasksReExecuted != 0 {
		t.Fatalf("a join must not re-execute tasks, got %d", s.TasksReExecuted)
	}
}

// TestFlapRuntime flaps a place once: the down edge is a crash (work
// re-homed), the up edge a rejoin with fresh workers rather than a
// permanent eviction.
func TestFlapRuntime(t *testing.T) {
	eachDequeKind(t, func(t *testing.T, k deque.Kind) {
		rt := chaosSum(t, Config{
			Cluster: chaosCluster(),
			Policy:  sched.DistWS,
			Seed:    7,
			Deque:   k,
			Fault: &fault.Plan{
				Flaps: []fault.Flap{{
					Place:  2,
					AtNS:   int64(300 * time.Microsecond),
					DownNS: int64(2 * time.Millisecond),
					UpNS:   int64(2 * time.Millisecond),
					Cycles: 1,
				}},
			},
		}, 800)
		defer rt.Shutdown()
		// Wait out the up edge (down at 300µs + 2ms) regardless of how fast
		// the workload finished.
		time.Sleep(20 * time.Millisecond)
		s := rt.Metrics()
		if s.PlacesLost != 1 {
			t.Fatalf("PlacesLost = %d, want 1", s.PlacesLost)
		}
		if s.MembershipRejoins != 1 {
			t.Fatalf("MembershipRejoins = %d, want 1", s.MembershipRejoins)
		}
	})
}

// TestPartitionWindowRuntime cuts the cluster for a wall-clock window:
// cross-cut steal probes burn timeouts while it lasts, and the run still
// completes exactly once.
func TestPartitionWindowRuntime(t *testing.T) {
	eachDequeKind(t, func(t *testing.T, k deque.Kind) {
		cfg := Config{
			Cluster: chaosCluster(),
			Policy:  sched.DistWS,
			Seed:    7,
			Deque:   k,
			Fault: &fault.Plan{
				Partitions: []fault.Partition{{
					GroupA: []int{0, 1},
					AtNS:   1,
					HealNS: int64(3 * time.Millisecond),
				}},
			},
		}
		var rt *Runtime
		if k == deque.KindRelaxed {
			rt = chaosFanOut(t, cfg, 9)
		} else {
			rt = chaosSum(t, cfg, 800)
		}
		defer rt.Shutdown()
		s := rt.Metrics()
		if s.TasksReExecuted != 0 {
			t.Fatalf("a partition (no crash) must not re-execute tasks, got %d", s.TasksReExecuted)
		}
		if s.PlacesLost != 0 {
			t.Fatalf("a partition must not evict places, got %d lost", s.PlacesLost)
		}
	})
}

// TestShutdownCancelsChurnTimers makes sure a pending churn schedule does
// not fire into a shut-down runtime.
func TestShutdownCancelsChurnTimers(t *testing.T) {
	rt, err := New(Config{
		Cluster: chaosCluster(),
		Policy:  sched.DistWS,
		Seed:    7,
		Fault: &fault.Plan{
			Drains: []fault.Drain{{Place: 1, AtNS: int64(time.Hour)}},
			Joins:  []fault.Join{{Place: 3, AtNS: int64(time.Hour)}},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Shutdown()
	if err := rt.DrainPlace(2); !errors.Is(err, ErrShutdown) && err == nil {
		t.Fatalf("DrainPlace after shutdown: %v", err)
	}
	s := rt.Metrics()
	if s.MembershipDrains != 0 || s.MembershipJoins != 0 {
		t.Fatalf("cancelled timers still fired: %+v", s)
	}
}
