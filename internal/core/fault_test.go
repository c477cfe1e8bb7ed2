package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/topology"
)

// chaosSum runs n small activities spread over all places under cfg and
// checks that every one of them executed exactly once — the recovery
// invariant: a crash may move work, never lose or duplicate it.
func chaosSum(t *testing.T, cfg Config, n int) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var sum atomic.Int64
	var count atomic.Int64
	err = rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < n; i++ {
				i := i
				home := i % c.Places()
				spawn := c.AsyncAny
				if cfg.Policy == sched.X10WS {
					spawn = c.Async
				}
				spawn(home, func(*Ctx) {
					time.Sleep(20 * time.Microsecond)
					sum.Add(int64(i))
					count.Add(1)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(n) * int64(n-1) / 2
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d (count=%d of %d)", got, want, count.Load(), n)
	}
	if got := count.Load(); got != int64(n) {
		t.Fatalf("executed %d activities, want %d", got, n)
	}
	return rt
}

func chaosCluster() topology.Cluster {
	return topology.Cluster{Places: 4, WorkersPerPlace: 2}
}

// chaosFanOut is chaosSum for steal-path faults under the relaxed kind.
// chaosSum's one-shot burst from the root leaves every flexible queue
// empty (see TestReceiverInitiatedStealing), so no receiver-initiated
// request is ever posted and no fault can hit one; this grows that test's
// recursive flexible fan-out from place 0 instead — 2^(depth+1)-1 tasks —
// and checks every one executed exactly once.
func chaosFanOut(t *testing.T, cfg Config, depth int) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var count atomic.Int64
	var spawn func(c *Ctx, depth int)
	spawn = func(c *Ctx, depth int) {
		count.Add(1)
		time.Sleep(10 * time.Microsecond)
		for i := 0; i < 2 && depth > 0; i++ {
			c.AsyncAny(c.Place(), func(c *Ctx) { spawn(c, depth-1) })
		}
	}
	if err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) { spawn(c, depth) })
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(1)<<(depth+1) - 1
	if got := count.Load(); got != want {
		t.Fatalf("executed %d activities, want %d", got, want)
	}
	return rt
}

// eachDequeKind runs body once per worker-queue kind: the fault and churn
// cases below take the kind as one more input, so the receiver-initiated
// steal (relaxed) meets the same drops, partitions, crashes and drains as
// the sender-initiated one.
func eachDequeKind(t *testing.T, body func(t *testing.T, k deque.Kind)) {
	for _, k := range deque.Kinds() {
		t.Run(k.String(), func(t *testing.T) { body(t, k) })
	}
}

func TestCrashedPlaceWorkIsReExecuted(t *testing.T) {
	rt := chaosSum(t, Config{
		Cluster: chaosCluster(),
		Policy:  sched.DistWS,
		Seed:    7,
		Fault: &fault.Plan{
			Crashes: []fault.Crash{{Place: 1, AfterTasks: 3}},
		},
	}, 400)
	defer rt.Shutdown()
	s := rt.Metrics()
	if s.PlacesLost != 1 {
		t.Fatalf("PlacesLost = %d, want 1", s.PlacesLost)
	}
	if s.TasksReExecuted == 0 {
		t.Fatalf("a loaded place crashed; queued tasks should be re-executed")
	}
}

// TestCrashCompletesOnEveryKind is the crash above per worker-queue kind,
// checking completion only (chaosSum's exact sum): how many tasks were
// still queued when the place died, and so re-executed, is a schedule the
// test does not control.
func TestCrashCompletesOnEveryKind(t *testing.T) {
	eachDequeKind(t, func(t *testing.T, k deque.Kind) {
		rt := chaosSum(t, Config{
			Cluster: chaosCluster(),
			Policy:  sched.DistWS,
			Seed:    7,
			Deque:   k,
			Fault: &fault.Plan{
				Crashes: []fault.Crash{{Place: 1, AfterTasks: 3}},
			},
		}, 400)
		defer rt.Shutdown()
		if s := rt.Metrics(); s.PlacesLost != 1 {
			t.Fatalf("PlacesLost = %d, want 1", s.PlacesLost)
		}
	})
}

func TestCrashUnderX10WSStillCompletes(t *testing.T) {
	// X10WS never migrates tasks in steady state, but fail-stop recovery
	// must still re-home a crashed place's queues.
	rt := chaosSum(t, Config{
		Cluster: chaosCluster(),
		Policy:  sched.X10WS,
		Seed:    7,
		Fault: &fault.Plan{
			Crashes: []fault.Crash{{Place: 2, AfterTasks: 3}},
		},
	}, 400)
	defer rt.Shutdown()
	s := rt.Metrics()
	if s.PlacesLost != 1 || s.TasksReExecuted == 0 {
		t.Fatalf("recovery counters: placesLost=%d reExecuted=%d", s.PlacesLost, s.TasksReExecuted)
	}
}

func TestLossySteals(t *testing.T) {
	// All work homed at place 0: remote thieves must steal through a
	// lossy, slow, duplicating fabric, so timeouts, retries, and drops
	// accumulate while the result stays exact.
	eachDequeKind(t, func(t *testing.T, k deque.Kind) {
		cfg := Config{
			Cluster:      chaosCluster(),
			Policy:       sched.DistWS,
			Seed:         7,
			Deque:        k,
			StealTimeout: 20 * time.Microsecond,
			Fault: &fault.Plan{
				Seed:     3,
				DropProb: 0.3,
				DupProb:  0.3,
				Grays:    []fault.Gray{{From: -1, To: 0, ExtraNS: 5_000}},
			},
		}
		var rt *Runtime
		if k == deque.KindRelaxed {
			rt = chaosFanOut(t, cfg, 9)
		} else {
			var err error
			if rt, err = New(cfg); err != nil {
				t.Fatalf("New: %v", err)
			}
			const n = 300
			var count atomic.Int64
			err = rt.Run(func(ctx *Ctx) {
				ctx.Finish(func(c *Ctx) {
					for i := 0; i < n; i++ {
						c.AsyncAny(0, func(*Ctx) {
							time.Sleep(20 * time.Microsecond)
							count.Add(1)
						})
					}
				})
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if count.Load() != n {
				t.Fatalf("executed %d of %d under loss", count.Load(), n)
			}
		}
		rt.Shutdown() // idle thieves keep probing; read the counters at rest
		s := rt.Metrics()
		if s.TasksExecuted != s.TasksSpawned {
			t.Fatalf("executed %d of %d spawned", s.TasksExecuted, s.TasksSpawned)
		}
		if s.DroppedMessages == 0 || s.StealTimeouts == 0 {
			t.Fatalf("30%% loss recorded no faults: %v", s)
		}
		if s.Retries == 0 {
			t.Fatalf("timeouts should be retried with backoff: %v", s)
		}
		if s.DuplicatedMessages == 0 {
			t.Fatalf("30%% duplication recorded no duplicated reply: %v", s)
		}
		if s.Messages < 2*s.RemoteProbes {
			t.Fatalf("every probe is a message pair: Messages = %d, RemoteProbes = %d", s.Messages, s.RemoteProbes)
		}
		if k == deque.KindRelaxed && s.StealRequests != s.RemoteProbes {
			t.Fatalf("every receiver-initiated probe is one steal request: StealRequests = %d, RemoteProbes = %d",
				s.StealRequests, s.RemoteProbes)
		}
	})
}

func TestCrashWithLifelines(t *testing.T) {
	rt := chaosSum(t, Config{
		Cluster: chaosCluster(),
		Policy:  sched.LifelineWS,
		Seed:    7,
		Fault: &fault.Plan{
			Crashes: []fault.Crash{{Place: 3, AfterTasks: 2}},
		},
	}, 300)
	defer rt.Shutdown()
	if s := rt.Metrics(); s.PlacesLost != 1 {
		t.Fatalf("PlacesLost = %d, want 1", s.PlacesLost)
	}
}

func TestSpawnToDeadPlaceIsRehomed(t *testing.T) {
	rt, err := New(Config{
		Cluster: chaosCluster(),
		Policy:  sched.DistWS,
		Seed:    7,
		Fault: &fault.Plan{
			Crashes: []fault.Crash{{Place: 1, AfterTasks: 1}},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	err = rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			// Feed place 1 its crash quota, then keep spawning at it: the
			// later spawns must be re-homed, not stranded.
			for i := 0; i < 50; i++ {
				c.Async(1, func(*Ctx) {
					time.Sleep(10 * time.Microsecond)
					ran.Add(1)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 50 {
		t.Fatalf("executed %d of 50", ran.Load())
	}
	if s := rt.Metrics(); s.PlacesLost != 1 {
		t.Fatalf("PlacesLost = %d, want 1", s.PlacesLost)
	}
}

// TestNextAliveTotalLoss pins the re-homing rule on the two place flags:
// the first place at or after from, wrapping, that is neither dead nor
// draining; the -1 sentinel (never a spin) once every place is gone; and
// a revived place reachable again.
func TestNextAliveTotalLoss(t *testing.T) {
	rt, err := New(Config{Cluster: chaosCluster(), Policy: sched.DistWS, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	nextAlive := func(from int) int { return sched.NextAlive(from, len(rt.places), rt.down) }
	if got := nextAlive(2); got != 2 {
		t.Fatalf("nextAlive(2) with every place up = %d, want 2", got)
	}
	rt.places[2].dead.Store(true)
	if got := nextAlive(2); got != 3 {
		t.Fatalf("nextAlive(2) = %d, want 3", got)
	}
	rt.places[3].draining.Store(true)
	if got := nextAlive(2); got != 0 {
		t.Fatalf("nextAlive(2) = %d, want wraparound to 0", got)
	}
	if got := nextAlive(-1); got != 0 {
		t.Fatalf("nextAlive(-1) = %d, want 0", got)
	}
	rt.places[0].draining.Store(true)
	rt.places[1].dead.Store(true)
	for from := -2; from < 6; from++ {
		if got := nextAlive(from); got != -1 {
			t.Fatalf("nextAlive(%d) with every place gone = %d, want -1", from, got)
		}
	}
	rt.places[1].dead.Store(false)
	if got := nextAlive(2); got != 1 {
		t.Fatalf("nextAlive(2) after place 1 came back = %d, want 1", got)
	}
}

func TestInvalidFaultPlanRejected(t *testing.T) {
	_, err := New(Config{
		Cluster: chaosCluster(),
		Fault:   &fault.Plan{Crashes: []fault.Crash{{Place: 9, AfterTasks: 1}}},
	})
	if err == nil {
		t.Fatalf("crash of place 9 on 4 places should be rejected")
	}
	_, err = New(Config{
		Cluster: chaosCluster(),
		Fault:   &fault.Plan{DropProb: 2},
	})
	if err == nil {
		t.Fatalf("DropProb=2 should be rejected")
	}
	// Place 0 crashes while place 1 has yet to join: its queue would have
	// nowhere to go (a Run of 200 Async(0, ...) used to end in an index
	// out of range [-1] from the re-homing rule, or never return).
	_, err = New(Config{
		Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
		Fault: &fault.Plan{
			Crashes: []fault.Crash{{Place: 0, AfterTasks: 5}},
			Joins:   []fault.Join{{Place: 1, AtNS: 5e9}},
		},
	})
	if !errors.Is(err, fault.ErrNoSurvivor) {
		t.Fatalf("a crash while the only other place is absent: New = %v, want fault.ErrNoSurvivor", err)
	}
}
