package sim

import (
	"errors"
	"testing"

	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/trace"
)

// deepGraph builds a chain-of-spawns workload: root tasks at place 0 that
// each spawn children mid-execution, giving crashes something to
// interrupt at every depth.
func deepGraph(t *testing.T, width, depth int, cost int64, flexible bool) *trace.Graph {
	t.Helper()
	b := trace.NewBuilder("deep")
	var grow func(parent int, d int)
	grow = func(parent int, d int) {
		if d == 0 {
			return
		}
		c := b.Child(parent, trace.Task{CostNS: cost, HomeMode: trace.HomeInherit, Flexible: flexible})
		grow(c, d-1)
	}
	for i := 0; i < width; i++ {
		r := b.Root(trace.Task{CostNS: cost, Home: 0, Flexible: flexible})
		grow(r, depth)
	}
	g, err := b.Graph()
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	return g
}

func TestCrashMidRunAllTasksStillExecute(t *testing.T) {
	g := flatGraph(t, 120, 1_000_000, -1, 4, true)
	plan := &fault.Plan{Seed: 9, Crashes: []fault.Crash{{Place: 1, AtVirtualNS: 2_000_000}}}
	r, err := Run(g, cluster(4, 2), sched.DistWS, Options{Seed: 7, Fault: plan})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Counters.TasksExecuted != 120 {
		t.Fatalf("executed %d of 120 under a crash", r.Counters.TasksExecuted)
	}
	if r.Counters.PlacesLost != 1 {
		t.Fatalf("PlacesLost = %d, want 1", r.Counters.PlacesLost)
	}
	if r.Counters.TasksReExecuted == 0 {
		t.Fatalf("crash of a loaded place should re-execute tasks")
	}
	// The crashed place stops accumulating busy time after the crash.
	if r.PlaceBusyNS[1] >= r.PlaceBusyNS[0]+r.PlaceBusyNS[2]+r.PlaceBusyNS[3] {
		t.Fatalf("crashed place did most of the work: %v", r.PlaceBusyNS)
	}
}

func TestCrashAfterTasksTrigger(t *testing.T) {
	g := flatGraph(t, 80, 1_000_000, -1, 4, true)
	plan := &fault.Plan{Crashes: []fault.Crash{{Place: 2, AfterTasks: 3}}}
	r, err := Run(g, cluster(4, 2), sched.DistWS, Options{Seed: 7, Fault: plan})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Counters.TasksExecuted != 80 {
		t.Fatalf("executed %d of 80", r.Counters.TasksExecuted)
	}
	if r.Counters.PlacesLost != 1 {
		t.Fatalf("PlacesLost = %d, want 1", r.Counters.PlacesLost)
	}
}

// A crash must not lose or duplicate work even when tasks spawn subtrees:
// re-executed parents must not re-spawn already-scheduled children.
func TestCrashWithSpawningTasks(t *testing.T) {
	g := deepGraph(t, 8, 6, 800_000, true)
	plan := &fault.Plan{Crashes: []fault.Crash{{Place: 0, AtVirtualNS: 1_500_000}}}
	r, err := Run(g, cluster(4, 2), sched.DistWS, Options{Seed: 3, Fault: plan})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if int(r.Counters.TasksExecuted) != g.NumTasks() {
		t.Fatalf("executed %d of %d", r.Counters.TasksExecuted, g.NumTasks())
	}
	if r.Counters.TasksSpawned != int64(g.NumTasks()) {
		t.Fatalf("spawned %d of %d: re-execution must not double-spawn",
			r.Counters.TasksSpawned, g.NumTasks())
	}
}

func TestCrashUnderX10WS(t *testing.T) {
	// X10WS cannot steal across places, but runtime-level recovery still
	// re-homes a crashed place's queued tasks.
	g := flatGraph(t, 100, 1_000_000, -1, 4, false)
	plan := &fault.Plan{Crashes: []fault.Crash{{Place: 3, AtVirtualNS: 2_000_000}}}
	r, err := Run(g, cluster(4, 2), sched.X10WS, Options{Seed: 7, Fault: plan})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Counters.TasksExecuted != 100 {
		t.Fatalf("executed %d of 100", r.Counters.TasksExecuted)
	}
	if r.Counters.TasksReExecuted == 0 {
		t.Fatalf("queued tasks at the crashed place should be re-executed")
	}
}

func TestDroppedStealsCostTimeoutsAndRetries(t *testing.T) {
	g := flatGraph(t, 200, 500_000, 0, 1, true)
	clean, err := Run(g, cluster(4, 2), sched.DistWS, Options{Seed: 7})
	if err != nil {
		t.Fatalf("clean Run: %v", err)
	}
	plan := &fault.Plan{Seed: 11, DropProb: 0.2}
	lossy, err := Run(g, cluster(4, 2), sched.DistWS, Options{Seed: 7, Fault: plan})
	if err != nil {
		t.Fatalf("lossy Run: %v", err)
	}
	if lossy.Counters.TasksExecuted != 200 {
		t.Fatalf("executed %d of 200 under loss", lossy.Counters.TasksExecuted)
	}
	if lossy.Counters.DroppedMessages == 0 || lossy.Counters.StealTimeouts == 0 {
		t.Fatalf("20%% loss produced no drops/timeouts: %+v", lossy.Counters)
	}
	if lossy.Counters.Retries == 0 {
		t.Fatalf("timeouts should trigger backoff retries")
	}
	if lossy.MakespanNS <= clean.MakespanNS {
		t.Fatalf("lossy makespan %d not slower than clean %d",
			lossy.MakespanNS, clean.MakespanNS)
	}
	if clean.Counters.DroppedMessages != 0 || clean.Counters.StealTimeouts != 0 {
		t.Fatalf("fault-free run recorded faults: %+v", clean.Counters)
	}
}

func TestFaultDeterminism(t *testing.T) {
	g := deepGraph(t, 10, 5, 700_000, true)
	plan := &fault.Plan{
		Seed:      5,
		DropProb:  0.1,
		SpikeProb: 0.2,
		SpikeNS:   50_000,
		Crashes:   []fault.Crash{{Place: 1, AtVirtualNS: 1_200_000}},
	}
	opts := Options{Seed: 7, Fault: plan}
	a, err := Run(g, cluster(4, 2), sched.DistWS, opts)
	if err != nil {
		t.Fatalf("Run a: %v", err)
	}
	b, err := Run(g, cluster(4, 2), sched.DistWS, opts)
	if err != nil {
		t.Fatalf("Run b: %v", err)
	}
	if a.MakespanNS != b.MakespanNS || a.Counters != b.Counters {
		t.Fatalf("chaos run nondeterministic:\n%v\n%v", a, b)
	}
}

func TestLifelineRehomingAfterCrash(t *testing.T) {
	g := deepGraph(t, 12, 4, 900_000, true)
	plan := &fault.Plan{Crashes: []fault.Crash{{Place: 1, AtVirtualNS: 1_000_000}}}
	r, err := Run(g, cluster(4, 2), sched.LifelineWS, Options{Seed: 7, Fault: plan})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if int(r.Counters.TasksExecuted) != g.NumTasks() {
		t.Fatalf("executed %d of %d under LifelineWS crash", r.Counters.TasksExecuted, g.NumTasks())
	}
}

func TestPlanValidatedAgainstCluster(t *testing.T) {
	g := flatGraph(t, 10, 1_000_000, 0, 1, true)
	bad := &fault.Plan{Crashes: []fault.Crash{{Place: 99, AtVirtualNS: 1}}}
	if _, err := Run(g, cluster(4, 2), sched.DistWS, Options{Fault: bad}); err == nil {
		t.Fatalf("crash of place 99 on a 4-place cluster should fail validation")
	}
	allDown := &fault.Plan{Crashes: []fault.Crash{
		{Place: 0, AtVirtualNS: 1}, {Place: 1, AtVirtualNS: 1},
	}}
	if _, err := Run(g, cluster(2, 2), sched.DistWS, Options{Fault: allDown}); err == nil {
		t.Fatalf("crashing every place should fail validation")
	}
	// Place 0 crashes while place 1 has yet to join: its queue would have
	// nowhere to go (this plan used to stall the run part-way).
	absent := &fault.Plan{
		Crashes: []fault.Crash{{Place: 0, AfterTasks: 5}},
		Joins:   []fault.Join{{Place: 1, AtNS: 5e9}},
	}
	if _, err := Run(flatGraph(t, 200, 1_000_000, 0, 1, true), cluster(2, 2), sched.DistWS, Options{Fault: absent}); !errors.Is(err, fault.ErrNoSurvivor) {
		t.Fatalf("a crash while the only other place is absent: Run = %v, want fault.ErrNoSurvivor", err)
	}
}

// TestSeededFaultRunIsPinned holds one seeded drop + spike + gray +
// duplicate + partition run to its makespan and counters: the order in
// which fault.Injector.RoundTrip consumes the decision counter and the
// backoff schedule of sched.Thief.Sweep (a jittered wait between attempts,
// none after the last) are both in these numbers, so a change to either
// shows here before it silently moves every seeded chaos run.
func TestSeededFaultRunIsPinned(t *testing.T) {
	g := deepGraph(t, 10, 5, 700_000, true)
	plan := &fault.Plan{
		Seed:       5,
		DropProb:   0.15,
		SpikeProb:  0.2,
		SpikeNS:    150_000,
		DupProb:    0.3,
		Grays:      []fault.Gray{{From: -1, To: 0, AtNS: 500_000, UntilNS: 6_000_000, ExtraNS: 120_000}},
		Partitions: []fault.Partition{{GroupA: []int{0, 1}, AtNS: 1_000_000, HealNS: 3_000_000}},
	}
	r, err := Run(g, cluster(4, 2), sched.DistWS, Options{Seed: 7, Fault: plan})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := r.Counters
	got := [...]int64{r.MakespanNS, c.TasksExecuted, c.RemoteProbes, c.Messages, c.RemoteSteals,
		c.DroppedMessages, c.StealTimeouts, c.Retries, c.DuplicatedMessages}
	want := [...]int64{6_063_740, 60, 91, 200, 22, 24, 24, 24, 18}
	if got != want {
		t.Fatalf("makespan, executed, probes, messages, remote steals, dropped, timeouts, retries, duplicated:\n got %v\nwant %v", got, want)
	}
}
