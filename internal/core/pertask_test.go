package core

import (
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/task"
	"distws/internal/topology"
)

// spin keeps the calling worker busy for d without blocking it.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestUtilizationNestedFinish pins the idle-side definition: an activity
// that waits in Finish helps by running its children inside its own run,
// and counting both as busy put a 1x1 runtime that had idled for part of
// its life at 100 %.
func TestUtilizationNestedFinish(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 1, 1))
	time.Sleep(3 * time.Millisecond)
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < 8; i++ {
				c.Async(0, func(c *Ctx) {
					c.Finish(func(c *Ctx) {
						for j := 0; j < 8; j++ {
							c.Async(0, func(*Ctx) { spin(100 * time.Microsecond) })
						}
					})
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	time.Sleep(3 * time.Millisecond)
	for p, f := range rt.Utilization() {
		if f <= 0 || f >= 100 {
			t.Fatalf("place %d utilization = %v %%, want strictly inside (0, 100): the runtime idled before and after the run", p, f)
		}
	}
}

// TestAllocsPerSpawnedTask is the allocation ceiling of the spawn/join
// path: one per task, the activity (its Ctx lives inside it). A second
// per-task allocation doubles the figure and fails here.
func TestAllocsPerSpawnedTask(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 1, 1))
	const tasks = 1024
	pass := func() {
		err := rt.Run(func(ctx *Ctx) {
			ctx.Finish(func(c *Ctx) {
				for i := 0; i < tasks; i++ {
					c.Async(c.Place(), func(*Ctx) {})
				}
			})
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	pass() // grow the deque
	// The slack covers what a pass allocates once: two finish scopes with
	// their channels, the root activity, Finish's Ctx, a parked worker's
	// timers.
	if got := testing.AllocsPerRun(20, pass); got > tasks+64 {
		t.Fatalf("%.0f allocations per pass of %d tasks (%.2f per task), want 1 per task",
			got, tasks, got/tasks)
	}
}

// TestShardedCountersConserve reads the per-worker counters while they
// move: with readers calling Metrics and Utilization throughout a 2x2
// fan-out in which place 1 crashes, the executed count never reads lower
// than it did, utilisation stays inside [0, 100], and at quiescence
// spawned == executed == the tasks run plus the root, which Run spawns
// with no spawning worker. Re-homed work ran once and counts once.
func TestShardedCountersConserve(t *testing.T) {
	const n = 400
	rt := mustNew(t, Config{
		Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
		Policy:  sched.DistWS,
		Seed:    7,
		Fault:   &fault.Plan{Crashes: []fault.Crash{{Place: 1, AfterTasks: 3}}},
	})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := rt.Metrics()
				if m.TasksExecuted < last {
					t.Errorf("TasksExecuted went from %d to %d", last, m.TasksExecuted)
					return
				}
				last = m.TasksExecuted
				for p, f := range rt.Utilization() {
					if f < 0 || f > 100 {
						t.Errorf("place %d utilization = %v %%", p, f)
						return
					}
				}
			}
		}()
	}
	var ran atomic.Int64
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < n; i++ {
				c.Async(i%2, func(*Ctx) {
					time.Sleep(20 * time.Microsecond)
					ran.Add(1)
				})
			}
		})
	})
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := rt.Metrics()
	if ran.Load() != n || m.TasksSpawned != n+1 || m.TasksExecuted != n+1 {
		t.Fatalf("ran %d bodies, spawned %d, executed %d; want %d, %d, %d",
			ran.Load(), m.TasksSpawned, m.TasksExecuted, n, n+1, n+1)
	}
	if m.PlacesLost != 1 || m.TasksReExecuted == 0 {
		t.Fatalf("PlacesLost = %d, TasksReExecuted = %d: place 1 should have crashed with work queued",
			m.PlacesLost, m.TasksReExecuted)
	}
}

// wakeRuntime is a 2x1 DistWS runtime whose idle poll is far beyond the
// test's deadline: an idle worker that makes progress was woken.
func wakeRuntime(t *testing.T) *Runtime {
	return mustNewTuned(t, testConfig(sched.DistWS, 2, 1), 30*time.Second, stealTimeout)
}

const wakeDeadline = 2 * time.Second

// waitAllIdle spins until both workers are inside an idle stretch. That is
// published before a worker's re-check sweep and its block, so work pushed
// right after lands anywhere in the parking protocol.
func waitAllIdle(t *testing.T, rt *Runtime) {
	t.Helper()
	for deadline := time.Now().Add(wakeDeadline); rt.idlers.Load() != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers idle, want 2", rt.idlers.Load())
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// fanOutUntilStolen keeps flexible fan-outs of 50 µs tasks coming at the
// caller's place until a remote thief has taken from one (how long a woken
// goroutine takes to get a CPU is the host's business), or until the
// deadline, which with the poll timer out of reach means the wake was lost.
func fanOutUntilStolen(c *Ctx, before int64) {
	for deadline := time.Now().Add(wakeDeadline); c.rt.Metrics().RemoteSteals == before && time.Now().Before(deadline); {
		c.Finish(func(c *Ctx) {
			for i := 0; i < 64; i++ {
				c.AsyncAny(c.Place(), func(*Ctx) { spin(50 * time.Microsecond) })
			}
		})
	}
}

// TestIdleThiefIsWoken: place 1's only worker is parked in its loop when
// flexible work appears at place 0. It can learn of the work only from the
// pusher's wake, and must steal some of it.
func TestIdleThiefIsWoken(t *testing.T) {
	rt := wakeRuntime(t)
	for i := 0; i < 50; i++ {
		waitAllIdle(t, rt)
		before := rt.Metrics().RemoteSteals
		if err := rt.Run(func(c *Ctx) { fanOutUntilStolen(c, before) }); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rt.Metrics().RemoteSteals == before {
			t.Fatalf("iteration %d: place 1 stole nothing in %v of flexible work at place 0: lost wake-up", i, wakeDeadline)
		}
	}
}

// TestHelpingThiefIsWoken is the same for a worker parked inside Finish:
// an activity at place 1 waits on a child it sent to place 0, and the
// child starts the flexible work once place 1's worker has gone idle in
// its help-wait. That worker must wake to steal, and again when its finish
// completes.
func TestHelpingThiefIsWoken(t *testing.T) {
	rt := wakeRuntime(t)
	for i := 0; i < 50; i++ {
		waitAllIdle(t, rt)
		before := rt.Metrics().RemoteSteals
		err := rt.Run(func(c *Ctx) {
			c.Finish(func(c *Ctx) {
				c.Async(1, func(c *Ctx) {
					c.Finish(func(c *Ctx) {
						c.Async(0, func(c *Ctx) {
							for rt.places[1].idlers.Load() == 0 && !rt.shutdown.Load() {
								time.Sleep(10 * time.Microsecond)
							}
							fanOutUntilStolen(c, before)
						})
					})
				})
			})
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rt.Metrics().RemoteSteals == before {
			t.Fatalf("iteration %d: the worker waiting in Finish at place 1 stole nothing in %v: lost wake-up", i, wakeDeadline)
		}
	}
}

// TestHelpWaitSweepIsAccounted: a worker waiting inside Finish with nothing
// to help with fails its sweeps as an idle worker does (Algorithm 1,
// §VI-B), so its place, of which it is the only worker, goes inactive
// while the scope's child runs elsewhere.
func TestHelpWaitSweepIsAccounted(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	err := rt.Run(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			c.Async(1, func(*Ctx) {
				for deadline := time.Now().Add(wakeDeadline); rt.places[0].Active(); time.Sleep(10 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Errorf("place 0 stayed active for %v while its only worker waited in Finish with nothing to run", wakeDeadline)
						return
					}
				}
			})
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestIdleRuntimeStopsSpinning: an idle worker polls its wake token only
// in the first idleSpin of an idle stretch, so a runtime left idle costs
// the process only its idlePoll timer wakes: 2-4 % of one CPU (5-8 %
// under -race) on a 2-vCPU host. A spin that restarted on every such wake
// adds idleSpin per wake per worker: 20-22 % (23-24 % under -race), not
// the 67 % a 200 µs poll would give, because with every processor idle Go
// sleeps at least a millisecond for a timer. Load on the host can only
// lower the figure. Not parallel: the process's CPU time is what it reads.
func TestIdleRuntimeStopsSpinning(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	if err := rt.Run(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			for p := 0; p < 2; p++ {
				c.Async(p, func(*Ctx) {})
			}
		})
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	time.Sleep(2 * idleSpin) // let the stretches the run ended with spin out
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatalf("getrusage: %v", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	cpu0, wall0 := cpu(), time.Now()
	time.Sleep(50 * time.Millisecond)
	used, wall := cpu()-cpu0, time.Since(wall0)
	share := float64(used) / float64(wall)
	t.Logf("idle 2x1 runtime: %v of CPU in %v (%.1f %% of one CPU)", used, wall, 100*share)
	if share >= 0.12 {
		t.Fatalf("an idle 2x1 runtime used %v of CPU in %v (%.0f %% of one CPU), want under 12 %%", used, wall, 100*share)
	}
}

// TestMapTargetSkipsOnlyWhatMapTaskIgnores holds place.mapTarget's two
// short cuts to sched.MapTask: where it passes a zero load or a zero spawn
// counter, no load and no counter would have changed the mapping.
func TestMapTargetSkipsOnlyWhatMapTaskIgnores(t *testing.T) {
	loads := []sched.PlaceLoad{
		{},
		{Active: true, Spares: 0, Size: 4, MaxThreads: 4},
		{Active: true, Spares: 2, Size: 2, MaxThreads: 4},
		{Active: false, Spares: 4, Size: 0, MaxThreads: 4},
	}
	for _, k := range sched.Kinds() {
		for _, class := range []task.Class{task.Sensitive, task.Flexible} {
			for _, load := range loads {
				for seq := uint64(0); seq < 4; seq++ {
					want := sched.MapTask(k, class, load, seq)
					if !readsLoad(k, class) {
						if got := sched.MapTask(k, class, sched.PlaceLoad{}, seq); got != want {
							t.Errorf("%v/%v: mapping depends on the load (%+v: %v, zero: %v) but mapTarget skips it",
								k, class, load, want, got)
						}
					}
					if k != sched.DistWSNS {
						if got := sched.MapTask(k, class, load, 0); got != want {
							t.Errorf("%v/%v: mapping depends on the spawn counter but mapTarget draws none", k, class)
						}
					}
				}
			}
		}
	}
}
