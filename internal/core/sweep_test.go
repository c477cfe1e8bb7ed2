package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/topology"
)

// TestOneSweepMatchesTheSimulator is the runtime's half of the differential
// test of the two sched.Thief drivers: see internal/sim's
// TestOneSweepMatchesTheRuntime, which renders the same sweeps from the
// simulator against the same golden file.
func TestOneSweepMatchesTheSimulator(t *testing.T) {
	var got strings.Builder
	for _, plan := range []struct {
		name string
		plan fault.Plan
		// The drop plan backs off twice per sweep, so its timeout is short;
		// the dup plan never does, and its timeout, which also bounds how
		// long a parked victim may take to donate, is generous.
		timeout time.Duration
	}{{"drop", fault.Plan{DropProb: 1}, time.Millisecond}, {"dup", fault.Plan{DupProb: 1}, 10 * time.Second}} {
		for _, kind := range []deque.Kind{deque.KindMutex, deque.KindRelaxed} {
			rt, err := New(Config{
				Cluster:      topology.Cluster{Places: 2, WorkersPerPlace: 1},
				Policy:       sched.DistWS,
				Seed:         7,
				Deque:        kind,
				Fault:        &plan.plan,
				StealTimeout: plan.timeout,
				IdlePoll:     time.Hour,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			b, a := rt.oneSweep()
			rt.Shutdown()
			name := plan.name + " sender"
			if kind == deque.KindRelaxed {
				name = plan.name + " receiver"
			}
			fmt.Fprintf(&got, "%s: probes=%d requests=%d messages=%d dropped=%d timeouts=%d retries=%d duplicated=%d stolen=%d\n",
				name, a.RemoteProbes-b.RemoteProbes, a.StealRequests-b.StealRequests, a.Messages-b.Messages,
				a.DroppedMessages-b.DroppedMessages, a.StealTimeouts-b.StealTimeouts, a.Retries-b.Retries,
				a.DuplicatedMessages-b.DuplicatedMessages, a.RemoteSteals-b.RemoteSteals)
		}
	}
	want, err := os.ReadFile("../sched/testdata/one_sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("one sweep per plan and protocol:\n%swant, as internal/sim's driver is also held to:\n%s", got.String(), want)
	}
}
