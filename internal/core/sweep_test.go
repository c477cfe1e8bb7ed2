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
	"distws/internal/task"
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
		// the dup plan never waits on it.
		timeout time.Duration
	}{{"drop", fault.Plan{DropProb: 1}, time.Millisecond}, {"dup", fault.Plan{DupProb: 1}, time.Millisecond}} {
		for _, kind := range []deque.Kind{deque.KindMutex, deque.KindRelaxed} {
			rt := mustNewTuned(t, Config{
				Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 1},
				Policy:  sched.DistWS,
				Seed:    7,
				Deque:   kind,
				Fault:   &plan.plan,
			}, time.Hour, plan.timeout)
			b, a := rt.oneSweep()
			rt.Shutdown()
			name := plan.name + " mutex"
			if kind == deque.KindRelaxed {
				name = plan.name + " relaxed"
			}
			fmt.Fprintf(&got, "%s: probes=%d messages=%d dropped=%d timeouts=%d retries=%d duplicated=%d stolen=%d\n",
				name, a.RemoteProbes-b.RemoteProbes, a.Messages-b.Messages,
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

// TestPlaceMatchesTheSimulator is the runtime's half of the differential
// test of the two sched.Places drivers; internal/sim's TestPlaceMatchesTheRuntime
// renders the same cases from the simulator against the same golden file.
// Each case runs on a 4x2 runtime that has come to rest (every worker
// failed its two start-up sweeps and, under LifelineWS, registered its
// lifelines) and then shut down, so no worker runs what a case queues,
// re-homes or lends; it renders the counters the place half owns and the
// flags of the place the case is about.
func TestPlaceMatchesTheSimulator(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		name   string
		policy sched.Kind
		joins  []fault.Join
		place  int
		run    func(l *sched.Places[*activity], queue func(place, n int))
	}{
		{"crash with 3 queued", sched.X10WS, nil, 1, func(l *sched.Places[*activity], queue func(int, int)) {
			queue(1, 3)
			l.Crash(1)
		}},
		{"drain with 2 queued", sched.X10WS, nil, 2, func(l *sched.Places[*activity], queue func(int, int)) {
			queue(2, 2)
			l.Drain(2)
		}},
		{"join", sched.X10WS, []fault.Join{{Place: 3, AtNS: int64(time.Hour)}}, 3, func(l *sched.Places[*activity], _ func(int, int)) {
			l.Revive(3, false)
		}},
		{"flap rejoin", sched.X10WS, nil, 2, func(l *sched.Places[*activity], _ func(int, int)) {
			l.Crash(2)
			l.Revive(2, true)
		}},
		{"failed-sweep run reaching the threshold", sched.X10WS, nil, 0, func(l *sched.Places[*activity], _ func(int, int)) {
			l.All[0].Assigned()
			l.FailedSweep(0, 0)
			l.FailedSweep(0, 1)
		}},
		{"lifeline serve with a dead waiter", sched.LifelineWS, nil, 2, func(l *sched.Places[*activity], queue func(int, int)) {
			l.FailedSweep(2, 0)
			l.Crash(2)
			queue(0, 3)
			l.Serve(0)
			l.FailedSweep(1, 0)
		}},
	} {
		rt := mustNewTuned(t, Config{
			Cluster: topology.Cluster{Places: 4, WorkersPerPlace: 2},
			Policy:  c.policy,
			Fault:   &fault.Plan{Joins: c.joins},
		}, time.Hour, stealTimeout)
		for rest := int64(2 * 2 * (4 - len(c.joins))); rt.counters.FailedSteals.Load() < rest; {
			time.Sleep(100 * time.Microsecond)
		}
		rt.Shutdown()
		b := rt.Metrics()
		c.run(&rt.life, func(place, n int) {
			for i := 0; i < n; i++ {
				rt.places[place].shared.Push(&activity{loc: task.Locality{MigrationBytes: 64}, fin: &finish{}})
			}
		})
		a := rt.Metrics()
		p := rt.places[c.place]
		fmt.Fprintf(&got, "%s: lost=%d reexec=%d offloaded=%d joins=%d drains=%d rejoins=%d failed=%d lent=%d messages=%d bytes=%d place%d=%s%s%s\n",
			c.name, a.PlacesLost-b.PlacesLost, a.TasksReExecuted-b.TasksReExecuted, a.TasksOffloaded-b.TasksOffloaded,
			a.MembershipJoins-b.MembershipJoins, a.MembershipDrains-b.MembershipDrains, a.MembershipRejoins-b.MembershipRejoins,
			a.FailedSteals-b.FailedSteals, a.RemoteSteals-b.RemoteSteals, a.Messages-b.Messages, a.BytesTransferred-b.BytesTransferred,
			c.place, flag(p.Active(), "A", "-"), flag(p.Dead(), "d", "."), flag(p.Draining(), "r", "."))
	}
	want, err := os.ReadFile("../sched/testdata/place.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("one lifecycle change per case:\n%swant, as internal/sim's driver is also held to:\n%s", got.String(), want)
	}
}

func flag(on bool, yes, no string) string {
	if on {
		return yes
	}
	return no
}
