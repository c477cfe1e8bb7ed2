package core

import (
	"testing"
	"time"

	"distws/internal/metrics"
	"distws/internal/sched"
	"distws/internal/task"
)

// mustNewTuned is New with the idlePoll and stealTimeout constants
// replaced, for the tests that need a worker never to wake on its own or a
// thief to give up sooner; the runtime shuts down at cleanup.
func mustNewTuned(t *testing.T, cfg Config, idle, steal time.Duration) *Runtime {
	t.Helper()
	rt, err := newRuntime(cfg, idle, steal)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// placeLoad exposes load introspection to white-box tests.
func (rt *Runtime) placeLoad(p int) sched.PlaceLoad { return rt.places[p].load() }

// oneSweep waits for a runtime of single-worker places to come to rest
// (every worker has failed its two start-up sweeps and parked; the caller
// sets idlePoll long enough that none wakes on its own), queues one
// flexible activity at place 0 where a remote thief can take it, runs one
// remote-steal sweep of place 1's worker on the calling goroutine and
// returns the counters before and after it.
func (rt *Runtime) oneSweep() (before, after metrics.Snapshot) {
	for rt.counters.FailedSteals.Load() < int64(2*len(rt.places)) {
		time.Sleep(100 * time.Microsecond)
	}
	a := &activity{loc: task.FlexibleLocality, fin: &finish{}}
	if victim := rt.places[0]; rt.relaxed {
		victim.workers[0].flex.Push(a)
	} else {
		victim.shared.Push(a)
	}
	before = rt.Metrics()
	rt.places[1].workers[0].stealRemote()
	return before, rt.Metrics()
}
