package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/trace"
)

// TestOneSweepMatchesTheRuntime is the simulator's half of the differential
// test of the two sched.Thief drivers; internal/core's test of the same name
// is the other. Each runs one sweep of one thief against one victim holding
// one stealable task, under a plan that loses every message and one that
// duplicates every reply, on the mutex and the relaxed kind, and renders the
// counter deltas the sweep owns; both must equal the one golden file, and so
// each other. (A run-level identity could not say this: a shutdown cuts a
// runtime thief's visit short.)
func TestOneSweepMatchesTheRuntime(t *testing.T) {
	var got strings.Builder
	for _, plan := range []struct {
		name string
		plan fault.Plan
	}{{"drop", fault.Plan{DropProb: 1}}, {"dup", fault.Plan{DupProb: 1}}} {
		for _, relaxed := range []bool{false, true} {
			opts := Options{Seed: 7, Fault: &plan.plan}
			name := plan.name + " mutex"
			if relaxed {
				name = plan.name + " relaxed"
				opts.LockContention, opts.Deque = true, deque.KindRelaxed
			}
			// Built, not run: the thief is place 1's only worker and task 0
			// sits in place 0's shared deque.
			e := newEngine(flatGraph(t, 1, 1000, 0, 1, true), cluster(2, 1), sched.DistWS, opts, nil)
			e.places[0].shared.PushBack(0)
			e.places[0].queued++
			e.stealRemote(e.workers[1])
			d := e.counters()
			fmt.Fprintf(&got, "%s: probes=%d messages=%d dropped=%d timeouts=%d retries=%d duplicated=%d stolen=%d\n",
				name, d.RemoteProbes, d.Messages, d.DroppedMessages, d.StealTimeouts,
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

// TestPlaceMatchesTheRuntime is the simulator's half of the differential
// test of the two sched.Places drivers; internal/core's
// TestPlaceMatchesTheSimulator is the other, and its comment gives the
// cases. The engine is built, not run: every worker sweeps once at its
// place first (two workers, so every place goes inactive, and under
// LifelineWS registers its lifelines), as the runtime's do before it comes
// to rest, and nothing a case queues, re-homes or lends is processed.
func TestPlaceMatchesTheRuntime(t *testing.T) {
	b := trace.NewBuilder("payload")
	for i := 0; i < 3; i++ {
		b.Root(trace.Task{CostNS: 1000, MigBytes: 64, Flexible: true})
	}
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, c := range []struct {
		name   string
		policy sched.Kind
		joins  []fault.Join
		place  int
		run    func(l *sched.Places[int], queue func(place, n int))
	}{
		{"crash with 3 queued", sched.X10WS, nil, 1, func(l *sched.Places[int], queue func(int, int)) {
			queue(1, 3)
			l.Crash(1)
		}},
		{"drain with 2 queued", sched.X10WS, nil, 2, func(l *sched.Places[int], queue func(int, int)) {
			queue(2, 2)
			l.Drain(2)
		}},
		{"join", sched.X10WS, []fault.Join{{Place: 3, AtNS: 1e12}}, 3, func(l *sched.Places[int], _ func(int, int)) {
			l.Revive(3, false)
		}},
		{"flap rejoin", sched.X10WS, nil, 2, func(l *sched.Places[int], _ func(int, int)) {
			l.Crash(2)
			l.Revive(2, true)
		}},
		{"failed-sweep run reaching the threshold", sched.X10WS, nil, 0, func(l *sched.Places[int], _ func(int, int)) {
			l.All[0].Assigned()
			l.FailedSweep(0, 0)
			l.FailedSweep(0, 1)
		}},
		{"lifeline serve with a dead waiter", sched.LifelineWS, nil, 2, func(l *sched.Places[int], queue func(int, int)) {
			l.FailedSweep(2, 0)
			l.Crash(2)
			queue(0, 3)
			l.Serve(0)
			l.FailedSweep(1, 0)
		}},
	} {
		e := newEngine(g, cluster(4, 2), c.policy, Options{Seed: 7, Fault: &fault.Plan{Joins: c.joins}}, nil)
		for _, w := range e.workers {
			e.findWork(w)
		}
		before := e.counters()
		c.run(&e.life, func(place, n int) {
			for id := 0; id < n; id++ {
				e.places[place].shared.PushBack(id)
				e.places[place].queued++
			}
		})
		a, p := e.counters(), e.places[c.place]
		fmt.Fprintf(&got, "%s: lost=%d reexec=%d offloaded=%d joins=%d drains=%d rejoins=%d failed=%d lent=%d messages=%d bytes=%d place%d=%s%s%s\n",
			c.name, a.PlacesLost-before.PlacesLost, a.TasksReExecuted-before.TasksReExecuted, a.TasksOffloaded-before.TasksOffloaded,
			a.MembershipJoins-before.MembershipJoins, a.MembershipDrains-before.MembershipDrains, a.MembershipRejoins-before.MembershipRejoins,
			a.FailedSteals-before.FailedSteals, a.RemoteSteals-before.RemoteSteals, a.Messages-before.Messages, a.BytesTransferred-before.BytesTransferred,
			c.place, flag(p.Active(), "A", "-"), flag(p.Dead(), "d", "."), flag(p.Draining(), "r", "."))
	}
	want, err := os.ReadFile("../sched/testdata/place.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("one lifecycle change per case:\n%swant, as internal/core's driver is also held to:\n%s", got.String(), want)
	}
}

func flag(on bool, yes, no string) string {
	if on {
		return yes
	}
	return no
}
