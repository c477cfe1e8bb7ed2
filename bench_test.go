// Benchmarks regenerating every table and figure of the paper's
// evaluation. One target per exhibit:
//
//	go test -bench=BenchmarkFig5SpeedupSweep -benchmem
//	go test -bench=. -benchmem          # the full evaluation
//
// Each iteration reruns the corresponding experiment end-to-end on the
// virtual 16×8 cluster (application traces are cached across iterations,
// as they are input data, not the system under test). The -v output of
// the experiment content itself comes from cmd/distws-experiments and the
// internal/expt tests; the benchmarks measure the cost of regenerating
// the exhibits and act as regression anchors for the harness.
package distws_test

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distws"
	"distws/internal/apps"
	"distws/internal/apps/kmeans"
	"distws/internal/apps/linalg"
	"distws/internal/apps/suite"
	"distws/internal/apps/uts"
	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/expt"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

var (
	benchOnce   sync.Once
	benchRunner *expt.Runner
)

// runner returns a shared experiment runner with warmed trace caches so
// benchmark iterations measure simulation, not workload generation.
func runner() *expt.Runner {
	benchOnce.Do(func() {
		benchRunner = expt.New(suite.Small, 1)
	})
	return benchRunner
}

// BenchmarkFig3StealsToTaskRatio regenerates Fig. 3 (steals-to-task
// ratios under DistWS at 128 workers).
func BenchmarkFig3StealsToTaskRatio(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig4SequentialTime regenerates Fig. 4 (sequential execution
// times, virtual and host wall clock).
func BenchmarkFig4SequentialTime(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5SpeedupSweep regenerates Fig. 5 (X10WS vs DistWS speedups
// over 1–16 places at 8 workers per place).
func BenchmarkFig5SpeedupSweep(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig5(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			last := row.Cells[len(row.Cells)-1]
			if last.DistWS < last.X10WS*0.99 {
				b.Fatalf("%s: DistWS regressed below X10WS at 128 workers", row.App)
			}
		}
	}
}

// BenchmarkTable1Granularity regenerates Table I (task granularities).
func BenchmarkTable1Granularity(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2CacheMissRates regenerates Table II (modelled L1d miss
// rates for X10WS / DistWS-NS / DistWS at 128 workers).
func BenchmarkTable2CacheMissRates(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Messages regenerates Table III (messages across nodes).
func BenchmarkTable3Messages(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6PolicyComparison regenerates Fig. 6 (three-policy speedup
// comparison at 128 workers).
func BenchmarkFig6PolicyComparison(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7NodeUtilization regenerates Fig. 7 (per-node CPU
// utilization and its spread under the three policies).
func BenchmarkFig7NodeUtilization(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGranularityStudy regenerates the §VIII-Q2 fine-grained
// micro-application study.
func BenchmarkGranularityStudy(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.GranularityStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUTSComparison regenerates the §X UTS study (RandomWS vs
// LifelineWS vs DistWS).
func BenchmarkUTSComparison(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.UTSStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentionStudy regenerates the shared-queue contention study
// (mutex vs Chase–Lev vs relaxed steal-half at 128–1024 virtual
// workers with the lock simulated) and asserts the PR's acceptance bound
// inline, so the bench-smoke gate catches both a harness breakage and a
// throughput regression below 2x in one iteration.
func BenchmarkContentionStudy(b *testing.B) {
	r := runner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := r.ContentionStudy()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Workers == 512 && row.RelaxedOverMutex < 2 {
				b.Fatalf("relaxed/mutex steal throughput at 512 workers = %.2fx, want >= 2x",
					row.RelaxedOverMutex)
			}
		}
	}
}

// BenchmarkSimulator128Workers measures raw simulator throughput on the
// cached DMG trace at full cluster width. Allocations per run and
// discrete-event throughput are reported so hot-path regressions (a
// reintroduced per-event allocation, a slower heap) are visible directly
// in benchmark output.
func BenchmarkSimulator128Workers(b *testing.B) {
	r := runner()
	app, err := suite.ByName("dmg", suite.Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := r.Trace(app, r.Cluster.Places)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(g, r.Cluster, sched.DistWS, sim.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// TestSimulatorAllocCeiling pins the allocation count of one simulated run
// per engine mode, so per-event or per-worker allocations cannot creep back
// into the engine unnoticed. The counts are deterministic (the engine is).
//   - dmg: the DMG trace on the 16×8 cluster under DistWS, the run
//     BenchmarkSimulator128Workers times; ceiling the measured 377 plus
//     under 10 %.
//   - cholesky-dag: sim.RunDAG of the suite's cholesky graph, data-aware,
//     one of the runs BenchmarkSimDAG times; ceiling the measured 328 plus
//     under 10 %. The graph's schedule is derived once, on the first run,
//     and the block directory is one flat bit array, so neither shows in
//     the count: what is left is the engine's own per-run state, as in the
//     dmg run. Per-block maps and per-task edge slices, which made 5 467
//     before blocks were dense, would add one allocation per block (136)
//     or task (816) and fail it.
func TestSimulatorAllocCeiling(t *testing.T) {
	r := runner()
	app, err := suite.ByName("dmg", suite.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.Trace(app, r.Cluster.Places)
	if err != nil {
		t.Fatal(err)
	}
	g, err := linalg.NewCholesky(512, 32, 1).Graph(r.Cluster.Places)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"dmg", 410, func() error {
			_, err := sim.Run(tr, r.Cluster, sched.DistWS, sim.Options{Seed: 1})
			return err
		}},
		{"cholesky-dag", 360, func() error {
			_, err := sim.RunDAG(g, r.Cluster, sched.DistWS, dag.PolicyDataAware, sim.Options{Seed: 1})
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per 16×8 run (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f: something on the simulator's hot path allocates again", c.name, allocs, c.ceiling)
		}
	}
}

// BenchmarkSimDAG measures the simulator's dataflow path, sim.RunDAG on
// the 16×8 cluster: the suite's cholesky and lu graphs (built once, as
// the exhibits share them), blind and data-aware, so the flow's release,
// BestPlace's scoring and the block directory are timed. Events/sec and
// allocations per run are reported, as BenchmarkSimulator128Workers
// reports them for fork-join traces.
func BenchmarkSimDAG(b *testing.B) {
	cl := topology.Paper()
	for _, a := range linalg.Suite(1)[:2] {
		g, err := a.Graph(cl.Places)
		if err != nil {
			b.Fatal(err)
		}
		for _, pol := range []dag.Policy{dag.PolicyBlind, dag.PolicyDataAware} {
			b.Run(a.Name()+"/"+pol.String(), func(b *testing.B) {
				b.ReportAllocs()
				var events int64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunDAG(g, cl, sched.DistWS, pol, sim.Options{Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					events += res.Events
				}
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(events)/secs, "events/sec")
				}
			})
		}
	}
}

// BenchmarkSimulatorTracing measures what the observability subsystem
// costs the simulator hot path: "off" runs with a nil recorder (the
// default; the acceptance budget is ≤2% slowdown and zero extra
// allocations vs BenchmarkSimulator128Workers), "on" with a recorder
// attached (ring writes per event; rings are allocated once and reused
// across same-shape runs).
func BenchmarkSimulatorTracing(b *testing.B) {
	r := runner()
	app, err := suite.ByName("dmg", suite.Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := r.Trace(app, r.Cluster.Places)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(g, r.Cluster, sched.DistWS, sim.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		// One recorder across iterations: Configure reuses its rings for
		// repeated same-shape runs, so this is steady-state recording cost.
		rec := distws.NewTraceRecorder(distws.TraceRecorderOptions{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(g, r.Cluster, sched.DistWS, sim.Options{Seed: 1, Recorder: rec}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvaluationHarness regenerates the three-policy exhibits
// (Tables II/III, Figs. 6/7 share one simulation grid) sequentially and on
// the GOMAXPROCS worker pool, making the parallel harness speedup visible
// in benchmark output. On a single-core host the two run at par.
func BenchmarkEvaluationHarness(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			r := expt.New(suite.Small, 1)
			r.Workers = mode.workers
			if _, err := r.Table2(); err != nil { // warm the trace cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Table2(); err != nil {
					b.Fatal(err)
				}
				if _, err := r.Fig6(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRuntimeFanout measures the real goroutine runtime: spawning
// and executing a fan-out of flexible tasks across 4 places, under each
// worker-queue kind — mutex-guarded (default), lock-free Chase–Lev (§V's
// steal-interruption trade-off), and fence-free relaxed queues that
// remote thieves take steal-half from.
func BenchmarkRuntimeFanout(b *testing.B) {
	for _, mode := range []struct {
		name string
		kind distws.DequeKind
	}{
		{"mutex-deques", distws.DequeMutex},
		{"chaselev-deques", distws.DequeChaseLev},
		{"relaxed-deques", distws.DequeRelaxed},
	} {
		b.Run(mode.name, func(b *testing.B) {
			rt, err := distws.New(distws.Config{
				Cluster: distws.Cluster{Places: 4, WorkersPerPlace: 2},
				Policy:  distws.DistWS,
				Deque:   mode.kind,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := rt.Run(func(ctx *distws.Ctx) {
					ctx.Finish(func(c *distws.Ctx) {
						for j := 0; j < 256; j++ {
							c.AsyncAny(j%4, func(*distws.Ctx) {})
						}
					})
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOneVictim is the many-thieves-one-victim probe: on one place
// of 2, 8 or 32 workers (oversubscribed past the host's cores), a root
// spawns 4 096 flexible tasks of about 1 µs each inside one Finish, so
// every thief is co-located with the one victim, the root's worker. It
// is where the relaxed kind's per-worker flexible queues could beat the
// mutex and Chase–Lev kinds' one shared deque, and reports ns/task and, for relaxed, the
// duplicate takes deduplicated per pass.
func BenchmarkOneVictim(b *testing.B) {
	const tasks = 4096
	for _, kind := range []struct {
		name string
		kind distws.DequeKind
	}{
		{"mutex", distws.DequeMutex},
		{"chaselev", distws.DequeChaseLev},
		{"relaxed", distws.DequeRelaxed},
	} {
		for _, workers := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("%s/1x%d", kind.name, workers), func(b *testing.B) {
				rt, err := distws.New(distws.Config{
					Cluster: distws.Cluster{Places: 1, WorkersPerPlace: workers},
					Policy:  distws.DistWS,
					Deque:   kind.kind,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer rt.Shutdown()
				dup := rt.Metrics().DuplicateTakes
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					err := rt.Run(func(ctx *distws.Ctx) {
						ctx.Finish(func(c *distws.Ctx) {
							for j := 0; j < tasks; j++ {
								c.AsyncAny(0, func(*distws.Ctx) {
									for start := time.Now(); time.Since(start) < time.Microsecond; {
									}
								})
							}
						})
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
				if kind.kind == distws.DequeRelaxed {
					b.ReportMetric(float64(rt.Metrics().DuplicateTakes-dup)/float64(b.N), "dup-takes/pass")
				}
			})
		}
	}
}

// utsSink keeps BenchmarkUTSRuntime's sequential reference from being
// optimised away.
var utsSink uint64

// BenchmarkUTSRuntime runs one UTS tree of 16 876 nodes on the goroutine
// runtime at 2 places x 1 worker under DistWS: the fine-grained tree
// rt-fine spends most of its time on, where a node's work (~75 ns) is
// smaller than a task's runtime cost, so the tree must be stolen as
// halves of a bag. It reports ns/node and x-seq, the parallel time over
// the sequential walk's (below 1 is faster than sequential), and fails on
// a wrong checksum; bench-smoke runs it once, so a bag that deadlocks or
// stops completing fails there in seconds.
func BenchmarkUTSRuntime(b *testing.B) {
	a := uts.New(44, 8, 400_000, 1)
	nodes, want := a.Count(), a.ChecksumXOR()
	var seq time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		utsSink = a.Sequential()
		if d := time.Since(start); i == 0 || d < seq {
			seq = d
		}
	}
	rt, err := core.New(core.Config{
		Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 1},
		Policy:  sched.DistWS,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := a.Parallel(rt)
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("checksum %x, want %x", got, want)
		}
	}
	per := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(per/float64(nodes), "ns/node")
	b.ReportMetric(per/float64(seq.Nanoseconds()), "x-seq")
}

// BenchmarkAppRun runs each of the seven paper apps and uts at the
// suite's small scale, seed 1, through Parallel on one long-lived 2x1
// DistWS runtime and through Sequential, and fails on a wrong checksum.
// One run each way before the timers builds the App's input, so a timed
// run is its algorithm only; bench-smoke runs it once, so a serial floor
// or a hang inside one app's run shows here in seconds.
func BenchmarkAppRun(b *testing.B) {
	rt, err := core.New(core.Config{
		Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 1},
		Policy:  sched.DistWS,
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Shutdown()
	for _, a := range append(suite.Paper(suite.Small, 1), suite.UTS(1)) {
		seq, par := a.Sequential(), apps.ParallelReference(a)
		if _, err := a.Parallel(rt); err != nil {
			b.Fatal(err)
		}
		b.Run(a.Name()+"/parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := a.Parallel(rt)
				if err != nil {
					b.Fatal(err)
				}
				if got != par {
					b.Fatalf("checksum %#x, want %#x", got, par)
				}
			}
		})
		b.Run(a.Name()+"/sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := a.Sequential(); got != seq {
					b.Fatalf("checksum %#x, want %#x", got, seq)
				}
			}
		})
	}
}

// BenchmarkNestedFinish times one nested Finish on a worker, inside one
// long Run, so neither Run's hand-offs nor a pool wake-up are in the
// figure: an empty scope, and a scope with one Async the worker runs
// itself while it helps. Its allocs/op is the scope's heap cost.
func BenchmarkNestedFinish(b *testing.B) {
	for _, bc := range []struct {
		name string
		body func(*distws.Ctx)
	}{
		{"empty", func(*distws.Ctx) {}},
		{"one-child", func(c *distws.Ctx) { c.Async(c.Place(), func(*distws.Ctx) {}) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rt, err := distws.New(distws.Config{
				Cluster: distws.Cluster{Places: 1, WorkersPerPlace: 1},
				Policy:  distws.DistWS,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Shutdown()
			b.ReportAllocs()
			b.ResetTimer()
			if err := rt.Run(func(c *distws.Ctx) {
				for i := 0; i < b.N; i++ {
					c.Finish(bc.body)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkIdleWake times push-to-start: how long after a push one task
// starts at a place whose only worker went idle 10 µs, 50 µs or 1 ms
// earlier. The pusher, the root at place 0, keeps its processor busy
// until the task starts, as a worker with more to run does; under X10WS
// place 1's worker learns of the task only from the push's wake. It
// reports the p50 and p90 of that latency; ns/op includes the idle wait.
func BenchmarkIdleWake(b *testing.B) {
	for _, idle := range []time.Duration{10 * time.Microsecond, 50 * time.Microsecond, time.Millisecond} {
		b.Run(idle.String(), func(b *testing.B) {
			rt, err := distws.New(distws.Config{
				Cluster: distws.Cluster{Places: 2, WorkersPerPlace: 1},
				Policy:  distws.X10WS,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Shutdown()
			base := time.Now()
			var started atomic.Int64 // ns since base at which the task started
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			err = rt.Run(func(c *distws.Ctx) {
				for i := 0; i < b.N; i++ {
					// The task's body is empty: its worker goes idle as it starts.
					for time.Since(base)-time.Duration(started.Load()) < idle {
					}
					pushed := time.Since(base)
					c.Finish(func(c *distws.Ctx) {
						c.Async(1, func(*distws.Ctx) { started.Store(int64(time.Since(base))) })
						for time.Duration(started.Load()) < pushed {
						}
					})
					lat = append(lat, time.Duration(started.Load())-pushed)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-µs")
			b.ReportMetric(float64(lat[len(lat)*9/10].Nanoseconds())/1e3, "p90-µs")
		})
	}
}

// BenchmarkXSort sorts 8 000 points by x, the size kmeans's input has at
// the suite's small scale: apps.SortX, and the slices.SortStableFunc
// order it reproduces.
func BenchmarkXSort(b *testing.B) {
	in := make([]kmeans.Point, 8_000)
	for i := range in {
		in[i] = kmeans.Point{X: apps.Unit(apps.Mix(1, uint64(i))), Y: apps.Unit(apps.Mix(2, uint64(i)))}
	}
	pts := make([]kmeans.Point, len(in))
	for _, bc := range []struct {
		name string
		sort func([]kmeans.Point)
	}{
		{"radix", func(s []kmeans.Point) { apps.SortX(s, func(p *kmeans.Point) float64 { return p.X }) }},
		{"stable-func", func(s []kmeans.Point) {
			slices.SortStableFunc(s, func(p, q kmeans.Point) int { return cmp.Compare(p.X, q.X) })
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(pts, in)
				bc.sort(pts)
			}
		})
	}
}
