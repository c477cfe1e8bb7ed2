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
	"sync"
	"testing"

	"distws"
	"distws/internal/apps/suite"
	"distws/internal/expt"
	"distws/internal/sched"
	"distws/internal/sim"
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
// (mutex vs Chase–Lev vs relaxed receiver-initiated at 128–1024 virtual
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
// — the DMG trace on the 16×8 cluster under DistWS, the same run
// BenchmarkSimulator128Workers times — so per-event or per-worker
// allocations cannot creep back into the engine unnoticed. The count is
// deterministic (the engine is); the ceiling is the measured 391 plus ~10%.
func TestSimulatorAllocCeiling(t *testing.T) {
	const ceiling = 430
	r := runner()
	app, err := suite.ByName("dmg", suite.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Trace(app, r.Cluster.Places)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sim.Run(g, r.Cluster, sched.DistWS, sim.Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per 16×8 DistWS run of %s (ceiling %d)", allocs, g.Name, ceiling)
	if allocs > ceiling {
		t.Fatalf("%.0f allocations per run, ceiling %d: something on the simulator's hot path allocates again", allocs, ceiling)
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

// BenchmarkAdaptiveOverhead measures what the adapt feedback controller
// costs the simulator hot path: "off" is the annotated DistWS baseline,
// "on" runs the same trace under the adaptive policy, where every task
// completion feeds ObserveExec, every remote probe feeds ObserveSteal,
// and victim order and chunk size come from the controller. The delta is
// recorded as adaptive_overhead_pct in BENCH_sim.json (make bench).
func BenchmarkAdaptiveOverhead(b *testing.B) {
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
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(g, r.Cluster, sched.Adaptive, sim.Options{Seed: 1}); err != nil {
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
// steal-interruption trade-off), and fence-free relaxed queues with
// receiver-initiated stealing.
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
