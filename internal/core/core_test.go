package core

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"distws/internal/deque"
	"distws/internal/sched"
	"distws/internal/task"
	"distws/internal/topology"
)

func testConfig(policy sched.Kind, places, workers int) Config {
	return Config{
		Cluster: topology.Cluster{Places: places, WorkersPerPlace: workers},
		Policy:  policy,
		Seed:    42,
	}
}

func mustNew(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	return mustNewTuned(t, cfg, idlePoll, stealTimeout)
}

func TestRunSimpleBody(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 2))
	var ran atomic.Bool
	if err := rt.Run(func(ctx *Ctx) {
		if ctx.Place() != 0 {
			t.Errorf("root activity at place %d, want 0", ctx.Place())
		}
		ran.Store(true)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran.Load() {
		t.Fatalf("body did not run")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Cluster: topology.Cluster{Places: -1, WorkersPerPlace: 1}}); err == nil {
		t.Fatalf("negative places should be rejected")
	}
	if _, err := New(Config{Cluster: topology.Cluster{Places: 1, WorkersPerPlace: 1}, Policy: sched.Kind(99)}); err == nil {
		t.Fatalf("invalid policy should be rejected")
	}
}

func TestSensitiveTasksRunAtHomePlace(t *testing.T) {
	const places = 4
	rt := mustNew(t, testConfig(sched.DistWS, places, 2))
	var wrong atomic.Int32
	var count atomic.Int32
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			for p := 0; p < places; p++ {
				for i := 0; i < 8; i++ {
					home := p
					ctx.Async(home, func(c *Ctx) {
						count.Add(1)
						if c.Place() != home {
							wrong.Add(1)
						}
					})
				}
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := count.Load(); got != places*8 {
		t.Fatalf("executed %d tasks, want %d", got, places*8)
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d locality-sensitive tasks ran away from home", wrong.Load())
	}
	if m := rt.Metrics(); m.TasksMigrated != 0 {
		t.Fatalf("TasksMigrated = %d for all-sensitive workload under DistWS", m.TasksMigrated)
	}
}

func TestX10WSNeverStealsRemotely(t *testing.T) {
	rt := mustNew(t, testConfig(sched.X10WS, 2, 1))
	var count atomic.Int32
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			for i := 0; i < 32; i++ {
				ctx.AsyncAny(0, func(*Ctx) {
					count.Add(1)
					time.Sleep(time.Millisecond)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := rt.Metrics()
	if count.Load() != 32 {
		t.Fatalf("executed %d, want 32", count.Load())
	}
	if m.RemoteSteals != 0 || m.TasksMigrated != 0 {
		t.Fatalf("X10WS stole remotely: steals=%d migrated=%d", m.RemoteSteals, m.TasksMigrated)
	}
}

func TestDistWSMigratesFlexibleTasksUnderImbalance(t *testing.T) {
	// One worker per place; all work spawned at place 0. The flexible
	// tasks land in place 0's shared deque (it is saturated by the root)
	// and place 1's idle worker must steal some of them.
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	var count atomic.Int32
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			for i := 0; i < 64; i++ {
				ctx.AsyncAny(0, func(*Ctx) {
					count.Add(1)
					time.Sleep(500 * time.Microsecond)
				})
			}
			// Keep the root worker busy so place 0 stays saturated while
			// the asyncs are queued.
			time.Sleep(5 * time.Millisecond)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count.Load() != 64 {
		t.Fatalf("executed %d, want 64", count.Load())
	}
	m := rt.Metrics()
	if m.RemoteSteals == 0 {
		t.Fatalf("expected remote steals under imbalance, got none (metrics: %v)", m)
	}
	if m.TasksMigrated == 0 {
		t.Fatalf("expected migrated tasks, got none")
	}
	if m.Messages == 0 {
		t.Fatalf("remote steals should produce messages")
	}
}

func TestDistWSSensitiveNeverMigratesEvenUnderImbalance(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	var wrong atomic.Int32
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			for i := 0; i < 32; i++ {
				ctx.Async(0, func(c *Ctx) {
					if c.Place() != 0 {
						wrong.Add(1)
					}
					time.Sleep(200 * time.Microsecond)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d sensitive tasks migrated", wrong.Load())
	}
}

func TestDistWSNSMigratesAnything(t *testing.T) {
	// Non-selective: sensitive tasks mapped to shared deques round robin
	// may be stolen by the other place.
	rt := mustNew(t, testConfig(sched.DistWSNS, 2, 1))
	var migrated atomic.Int32
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(ctx *Ctx) {
			for i := 0; i < 64; i++ {
				ctx.Async(0, func(c *Ctx) {
					if c.Place() != 0 {
						migrated.Add(1)
					}
					time.Sleep(500 * time.Microsecond)
				})
			}
			time.Sleep(5 * time.Millisecond)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if migrated.Load() == 0 {
		t.Fatalf("DistWS-NS should migrate sensitive tasks under imbalance")
	}
}

func TestNestedFinish(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 2))
	var order []string
	err := rt.Run(func(ctx *Ctx) {
		var inner atomic.Int32
		ctx.Finish(func(ctx *Ctx) {
			for i := 0; i < 10; i++ {
				ctx.AsyncAny(1, func(c *Ctx) {
					c.Finish(func(c2 *Ctx) {
						for j := 0; j < 3; j++ {
							c2.Async(c2.Place(), func(*Ctx) { inner.Add(1) })
						}
					})
				})
			}
		})
		if inner.Load() != 30 {
			t.Errorf("inner tasks after outer finish = %d, want 30", inner.Load())
		}
		order = append(order, "after-finish")
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 1 {
		t.Fatalf("finish did not complete")
	}
}

func TestRecursiveSpawnDoesNotDeadlock(t *testing.T) {
	// Fibonacci-style recursion with nested finishes exercises helping:
	// with only 2 workers, blocked finishes must execute queued children.
	rt := mustNew(t, testConfig(sched.DistWS, 1, 2))
	var fib func(ctx *Ctx, n int) int
	fib = func(ctx *Ctx, n int) int {
		if n < 2 {
			return n
		}
		var a, b int
		ctx.Finish(func(c *Ctx) {
			c.Async(c.Place(), func(c2 *Ctx) { a = fib(c2, n-1) })
			b = fib(c, n-2)
		})
		return a + b
	}
	var got int
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(func(ctx *Ctx) { got = fib(ctx, 10) })
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("deadlocked")
	}
	if got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestPanicPropagatesToRun(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 2))
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			c.Async(1, func(*Ctx) { panic("boom") })
		})
	})
	if err == nil {
		t.Fatalf("panic in activity should surface from Run")
	}
}

func TestAtShiftsPlaceAndCounts(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 3, 1))
	var seen atomic.Int32
	err := rt.Run(func(ctx *Ctx) {
		ctx.At(2, 128, func(c *Ctx) {
			seen.Store(int32(c.Place()))
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if seen.Load() != 2 {
		t.Fatalf("At body saw place %d, want 2", seen.Load())
	}
	m := rt.Metrics()
	if m.Messages < 2 || m.BytesTransferred < 256 || m.RemoteDataAccess != 1 {
		t.Fatalf("At accounting wrong: %v", m)
	}
}

func TestAtSamePlaceIsFree(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	err := rt.Run(func(ctx *Ctx) {
		ctx.At(0, 1024, func(*Ctx) {})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Note: idle workers at other places probe for steals, so Messages is
	// nonzero even here; same-place At must not add remote data accesses.
	if m := rt.Metrics(); m.RemoteDataAccess != 0 {
		t.Fatalf("same-place At counted %d remote accesses, want 0", m.RemoteDataAccess)
	}
}

// A flexible task that runs off its home place counts as migrated and
// performs no remote reference: only Ctx.At counts one. Place 0's only
// worker is held inside the Finish body until the task has run, so the
// task can only run by being stolen to place 1.
func TestAsyncLocAccountsRemoteRefs(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			ran := make(chan int, 1)
			c.AsyncLoc(0, task.FlexibleLocality, func(c *Ctx) { ran <- c.Place() })
			select {
			case p := <-ran:
				if p != 1 {
					t.Errorf("task ran at place %d while place 0's worker was held", p)
				}
			case <-time.After(10 * time.Second):
				t.Error("place 1 never stole the flexible task")
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := rt.Metrics()
	if m.TasksMigrated != 1 || m.RemoteDataAccess != 0 {
		t.Fatalf("TasksMigrated = %d, RemoteDataAccess = %d, want 1 migrated task and no remote reference: only Ctx.At counts one",
			m.TasksMigrated, m.RemoteDataAccess)
	}
}

func TestSpawnedEqualsExecuted(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 2))
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < 100; i++ {
				c.AsyncAny(i%2, func(*Ctx) {})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := rt.Metrics()
	if m.TasksSpawned != m.TasksExecuted {
		t.Fatalf("spawned %d != executed %d", m.TasksSpawned, m.TasksExecuted)
	}
}

func TestAsyncInvalidPlacePanics(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			c.Async(7, func(*Ctx) {})
		})
	})
	if err == nil {
		t.Fatalf("Async to invalid place should fail the run")
	}
}

func TestAsyncNilBodyPanics(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	if err := rt.Run(func(ctx *Ctx) { ctx.Async(0, nil) }); err == nil {
		t.Fatalf("nil body should fail the run")
	}
}

func TestShutdownIdempotentAndRunAfterShutdown(t *testing.T) {
	rt, err := New(testConfig(sched.DistWS, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	rt.Shutdown() // must not hang or panic
	if err := rt.Run(func(*Ctx) {}); err == nil {
		t.Fatalf("Run after Shutdown should error")
	}
}

func TestSequentialRunsReuseRuntime(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 2))
	for i := 0; i < 3; i++ {
		var n atomic.Int32
		err := rt.Run(func(ctx *Ctx) {
			ctx.Finish(func(c *Ctx) {
				for j := 0; j < 10; j++ {
					c.AsyncAny(j%2, func(*Ctx) { n.Add(1) })
				}
			})
		})
		if err != nil {
			t.Fatalf("Run #%d: %v", i, err)
		}
		if n.Load() != 10 {
			t.Fatalf("Run #%d executed %d, want 10", i, n.Load())
		}
	}
}

func TestPlaceLoadIdleAfterFailedSweeps(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	// Let workers spin with no work: they must mark the place inactive.
	deadline := time.After(5 * time.Second)
	for rt.placeLoad(1).Active {
		select {
		case <-deadline:
			t.Fatalf("place 1 never went inactive")
		case <-time.After(time.Millisecond):
		}
	}
	load := rt.placeLoad(1)
	if load.Spares != 1 || load.Size != 0 {
		t.Fatalf("idle load = %+v", load)
	}
}

func TestLifelinePolicyCompletesAndBalances(t *testing.T) {
	rt := mustNew(t, testConfig(sched.LifelineWS, 4, 1))
	var count atomic.Int32
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < 64; i++ {
				c.AsyncAny(0, func(*Ctx) {
					count.Add(1)
					time.Sleep(300 * time.Microsecond)
				})
			}
			time.Sleep(3 * time.Millisecond)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count.Load() != 64 {
		t.Fatalf("executed %d, want 64", count.Load())
	}
	if m := rt.Metrics(); m.RemoteSteals == 0 {
		t.Fatalf("lifeline runtime should transfer work across places")
	}
}

func TestRandomWSCompletes(t *testing.T) {
	rt := mustNew(t, testConfig(sched.RandomWS, 3, 1))
	var count atomic.Int32
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < 48; i++ {
				c.Async(i%3, func(*Ctx) { count.Add(1) })
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count.Load() != 48 {
		t.Fatalf("executed %d, want 48", count.Load())
	}
}

func TestUtilizationRecorded(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for p := 0; p < 2; p++ {
				c.Async(p, func(*Ctx) { time.Sleep(2 * time.Millisecond) })
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	u := rt.Utilization()
	if len(u) != 2 {
		t.Fatalf("utilization has %d places, want 2", len(u))
	}
	for p, f := range u {
		if f <= 0 {
			t.Fatalf("place %d has zero utilization: %v", p, u)
		}
	}
}

// TestDequeKindsRunCorrectly runs the same mixed sensitive/flexible
// workload under every worker-queue kind: the lock-free and fence-free
// queues must execute every task exactly once — for relaxed, that is the
// claim-based dedup absorbing any duplicate takes.
func TestDequeKindsRunCorrectly(t *testing.T) {
	for _, k := range deque.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := testConfig(sched.DistWS, 2, 2)
			cfg.Deque = k
			rt := mustNew(t, cfg)
			var count atomic.Int32
			err := rt.Run(func(ctx *Ctx) {
				ctx.Finish(func(c *Ctx) {
					for i := 0; i < 200; i++ {
						c.AsyncAny(i%2, func(*Ctx) { count.Add(1) })
						c.Async(i%2, func(*Ctx) { count.Add(1) })
					}
				})
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if count.Load() != 400 {
				t.Fatalf("executed %d, want 400", count.Load())
			}
			m := rt.Metrics()
			if m.TasksExecuted != 401 { // 400 spawned + the root activity
				t.Fatalf("TasksExecuted = %d, want 401 (duplicates must not execute)", m.TasksExecuted)
			}
		})
	}
}

// TestRelaxedFlexibleWorkIsStolenRemotely grows a recursive flexible
// fan-out from place 0 under the relaxed deques. Spawning from inside
// running tasks keeps the place saturated (Algorithm 1 maps flexible
// spawns to the stealable queues only when no worker is spare), so the
// surplus lands in the spawners' fence-free flexible queues, which remote
// thieves take steal-half from. A one-shot burst from the root would not
// do: the root outruns its sibling worker, every load sample sees a spare,
// and all work stays private. Completion plus the remote-steal count
// prove the remote take delivers work.
func TestRelaxedFlexibleWorkIsStolenRemotely(t *testing.T) {
	cfg := testConfig(sched.DistWS, 4, 2)
	cfg.Deque = deque.KindRelaxed
	rt := mustNew(t, cfg)
	var count atomic.Int32
	var spawn func(c *Ctx, depth int)
	spawn = func(c *Ctx, depth int) {
		count.Add(1)
		time.Sleep(10 * time.Microsecond)
		if depth == 0 {
			return
		}
		for i := 0; i < 2; i++ {
			d := depth - 1
			c.AsyncAny(c.Place(), func(c *Ctx) { spawn(c, d) })
		}
	}
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) { spawn(c, 9) }) // 2^10-1 = 1023 tasks
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count.Load() != 1023 {
		t.Fatalf("executed %d, want 1023", count.Load())
	}
	m := rt.Metrics()
	if m.TasksExecuted != 1023 {
		t.Fatalf("TasksExecuted = %d, want 1023 (dedup must absorb duplicate takes)", m.TasksExecuted)
	}
	if m.RemoteSteals == 0 {
		t.Fatal("no flexible work was stolen remotely")
	}
}

// TestRemoteThiefTakesHalfOfAnyFlexibleQueue puts n flexible tasks in one
// victim worker's flexible queue, worker i's of two for each i, and runs
// one remote sweep: the thief takes StealHalf(n) of them whichever worker
// holds them. Every worker is held inside a task meanwhile, so nothing
// else takes from a queue and the sweep runs on the calling goroutine
// without racing its worker's own; released, the thief's worker runs the
// loot and each task runs exactly once.
func TestRemoteThiefTakesHalfOfAnyFlexibleQueue(t *testing.T) {
	const n = 5
	for i := 0; i < 2; i++ {
		rt := mustNew(t, Config{
			Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
			Policy:  sched.DistWS,
			Seed:    7,
			Deque:   deque.KindRelaxed,
		})
		held := make(chan *worker)
		release := make(map[*worker]chan *activity)
		for _, p := range rt.places {
			for _, w := range p.workers {
				release[w] = make(chan *activity, 1)
			}
		}
		hold := &finish{}
		hold.add(4)
		for k := 0; k < 4; k++ {
			rt.spawn(&activity{body: func(c *Ctx) {
				held <- c.worker
				if a := <-release[c.worker]; a != nil {
					c.worker.run(a, tookRemote)
				}
			}, loc: task.SensitiveLocality, home: k % 2, fin: hold}, -1, nil)
		}
		var thief *worker
		for k := 0; k < 4; k++ {
			if w := <-held; thief == nil && w.place.id == 1 {
				thief = w
			}
		}

		var runs [n]atomic.Int32
		fin := &finish{}
		fin.add(n)
		for j := range runs {
			rt.places[0].workers[i].flex.Push(&activity{body: func(*Ctx) { runs[j].Add(1) }, loc: task.FlexibleLocality, fin: fin})
		}
		before := rt.Metrics().RemoteSteals
		loot := thief.stealRemote()
		stolen := rt.Metrics().RemoteSteals - before
		for w, ch := range release {
			if w == thief {
				ch <- loot
			} else {
				ch <- nil
			}
		}
		if want := int64(sched.StealHalf(n)); loot == nil || stolen != want {
			t.Fatalf("worker %d holds %d flexible tasks: one sweep stole %d, want %d", i, n, stolen, want)
		}
		for _, f := range []*finish{hold, fin} {
			select {
			case <-f.wait():
			case <-time.After(10 * time.Second):
				t.Fatalf("worker %d: tasks still pending after 10s", i)
			}
		}
		for j := range runs {
			if r := runs[j].Load(); r != 1 {
				t.Fatalf("worker %d: task %d ran %d times, want 1", i, j, r)
			}
		}
	}
}

func TestInvalidDequeKindRejected(t *testing.T) {
	cfg := testConfig(sched.DistWS, 2, 2)
	cfg.Deque = deque.Kind(99)
	if _, err := New(cfg); err == nil {
		t.Fatal("New should reject an invalid deque kind")
	}
}

func TestLockFreeRecursionDoesNotDeadlock(t *testing.T) {
	cfg := testConfig(sched.DistWS, 1, 2)
	cfg.Deque = deque.KindChaseLev
	rt := mustNew(t, cfg)
	var fib func(ctx *Ctx, n int) int
	fib = func(ctx *Ctx, n int) int {
		if n < 2 {
			return n
		}
		var a, b int
		ctx.Finish(func(c *Ctx) {
			c.Async(c.Place(), func(c2 *Ctx) { a = fib(c2, n-1) })
			b = fib(c, n-2)
		})
		return a + b
	}
	var got int
	if err := rt.Run(func(ctx *Ctx) { got = fib(ctx, 12) }); err != nil {
		t.Fatal(err)
	}
	if got != 144 {
		t.Fatalf("fib(12) = %d, want 144", got)
	}
}

func TestAtInsideFinishCountsTowardIt(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 3, 1))
	var order []int
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			c.At(1, 64, func(c2 *Ctx) {
				order = append(order, c2.Place())
				c2.At(2, 64, func(c3 *Ctx) {
					order = append(order, c3.Place())
				})
			})
		})
		order = append(order, ctx.Place())
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("At nesting order = %v, want [1 2 0]", order)
	}
	if m := rt.Metrics(); m.RemoteDataAccess != 2 {
		t.Fatalf("RemoteDataAccess = %d, want 2", m.RemoteDataAccess)
	}
}

func TestAsyncFromAtShiftedContext(t *testing.T) {
	// Spawning from inside an At body must home tasks correctly even
	// though the goroutine is borrowed (worker == nil).
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	var ran atomic.Int32
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			c.At(1, 0, func(c2 *Ctx) {
				c2.Async(1, func(c3 *Ctx) {
					if c3.Place() != 1 {
						t.Errorf("task ran at place %d, want 1", c3.Place())
					}
					ran.Add(1)
				})
			})
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("task spawned from At did not run")
	}
}

func TestUtilizationVectorLength(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 5, 1))
	if err := rt.Run(func(*Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Utilization()); got != 5 {
		t.Fatalf("Utilization has %d entries, want 5", got)
	}
}

func TestCtxMetricsVisibleToActivities(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	var spawned int64
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < 5; i++ {
				c.Async(0, func(*Ctx) {})
			}
		})
		spawned = rt.Metrics().TasksSpawned
	})
	if err != nil {
		t.Fatal(err)
	}
	if spawned < 6 { // root + 5
		t.Fatalf("TasksSpawned read by an activity = %d, want >= 6", spawned)
	}
}

// Private (sensitive) spawns run depth-first, newest first, on every kind.
// Under deque.KindRelaxed that is why priv is a ChaseLev deque and not a
// second relaxed queue, which takes oldest-first at both ends.
func TestPrivateSpawnsRunNewestFirst(t *testing.T) {
	for _, k := range deque.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := testConfig(sched.DistWS, 1, 1)
			cfg.Deque = k
			rt := mustNew(t, cfg)
			var order []int // one worker runs every activity: no race
			err := rt.Run(func(ctx *Ctx) {
				ctx.Finish(func(c *Ctx) {
					for i := 0; i < 4; i++ {
						c.Async(0, func(*Ctx) { order = append(order, i) })
					}
				})
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if want := []int{3, 2, 1, 0}; !slices.Equal(order, want) {
				t.Fatalf("private spawns ran in order %v, want %v", order, want)
			}
		})
	}
}
