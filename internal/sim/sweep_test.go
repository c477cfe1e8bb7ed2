package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/sched"
)

// TestOneSweepMatchesTheRuntime is the simulator's half of the differential
// test of the two sched.Thief drivers; internal/core's test of the same name
// is the other. Each runs one sweep of one thief against one victim holding
// one stealable task, under a plan that loses every message and one that
// duplicates every reply, sender- and receiver-initiated, and renders the
// counter deltas the sweep owns; both must equal the one golden file, and so
// each other. (A run-level identity could not say this: a shutdown cuts a
// runtime thief's visit short.)
func TestOneSweepMatchesTheRuntime(t *testing.T) {
	var got strings.Builder
	for _, plan := range []struct {
		name string
		plan fault.Plan
	}{{"drop", fault.Plan{DropProb: 1}}, {"dup", fault.Plan{DupProb: 1}}} {
		for _, receiver := range []bool{false, true} {
			opts := Options{Seed: 7, Fault: &plan.plan}
			name := plan.name + " sender"
			if receiver {
				name = plan.name + " receiver"
				opts.LockContention, opts.Deque = true, deque.KindRelaxed
			}
			// Built, not run: the thief is place 1's only worker and task 0
			// sits in place 0's shared deque.
			e := newEngine(flatGraph(t, 1, 1000, 0, 1, true), cluster(2, 1), sched.DistWS, opts, nil)
			e.places[0].shared.PushBack(0)
			e.places[0].queued++
			e.stealRemote(e.workers[1])
			d := e.ctrs.Snapshot()
			fmt.Fprintf(&got, "%s: probes=%d requests=%d messages=%d dropped=%d timeouts=%d retries=%d duplicated=%d stolen=%d\n",
				name, d.RemoteProbes, d.StealRequests, d.Messages, d.DroppedMessages, d.StealTimeouts,
				d.Retries, d.DuplicatedMessages, d.RemoteSteals)
		}
	}
	want, err := os.ReadFile("../sched/testdata/one_sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("one sweep per plan and protocol:\n%swant, as internal/core's driver is also held to:\n%s", got.String(), want)
	}
}
