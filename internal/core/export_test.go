package core

import (
	"time"

	"distws/internal/metrics"
	"distws/internal/sched"
	"distws/internal/task"
)

// placeLoad exposes load introspection to white-box tests.
func (rt *Runtime) placeLoad(p int) sched.PlaceLoad { return rt.places[p].load() }

// oneSweep waits for a runtime of single-worker places to come to rest
// (every worker has failed its two start-up sweeps and parked; the caller
// sets IdlePoll long enough that none wakes on its own), queues one
// flexible activity at place 0 where a remote thief can take it, runs one
// remote-steal sweep of place 1's worker on the calling goroutine and
// returns the counters before and after it.
func (rt *Runtime) oneSweep() (before, after metrics.Snapshot) {
	for rt.counters.FailedSteals.Load() < int64(2*len(rt.places)) {
		time.Sleep(100 * time.Microsecond)
	}
	a := &activity{loc: task.FlexibleLocality, fin: newFinish(nil)}
	if victim := rt.places[0]; rt.receiver {
		victim.workers[0].flex.Push(a)
	} else {
		victim.shared.Push(a)
	}
	before = rt.Metrics()
	rt.places[1].workers[0].stealRemote()
	return before, rt.Metrics()
}
