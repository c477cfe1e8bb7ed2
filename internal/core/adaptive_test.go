package core

import (
	"sync/atomic"
	"testing"

	"distws/internal/adapt"
	"distws/internal/sched"
	"distws/internal/task"
)

// Adaptive runtime-mode smoke: a spawn-heavy mixed workload on the real
// goroutine runtime, exercising the controller's Intern/Classify path on
// every spawn and the ObserveExec/ObserveSteal paths concurrently from
// all workers. Run under -race (make race), this is the data-race gate
// for the adapt wiring in internal/core.
func TestAdaptiveRuntimeSmoke(t *testing.T) {
	const places, tasks = 4, 400
	ctrl := adapt.New(adapt.Config{Places: places})
	cfg := testConfig(sched.Adaptive, places, 2)
	cfg.Adapt = ctrl
	rt := mustNew(t, cfg)

	var ran atomic.Int64
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < tasks; i++ {
				home := i % places
				// Alternate two kinds: a plain compute task and one that
				// declares a footprint plus remote references, so the
				// controller interns more than one signature.
				loc := task.FlexibleLocality
				if i%2 == 1 {
					loc = task.Locality{
						Class:          task.Flexible,
						Blocks:         []uint64{uint64(i % 8)},
						RemoteRefs:     3,
						MigrationBytes: 256,
					}
				}
				c.AsyncLoc(home, loc, func(*Ctx) {
					ran.Add(1)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := ran.Load(); got != tasks {
		t.Fatalf("ran %d of %d tasks", got, tasks)
	}
	if ctrl.NumKinds() < 2 {
		t.Fatalf("controller interned %d kinds, want >= 2", ctrl.NumKinds())
	}
	// The counter mirrors the controller.
	if got := rt.Metrics().Reclassifications; got != ctrl.Flips() {
		t.Fatalf("Reclassifications %d != controller flips %d", got, ctrl.Flips())
	}
}

// An adaptive runtime with no controller supplied builds its own.
func TestAdaptiveRuntimeDefaultController(t *testing.T) {
	rt := mustNew(t, testConfig(sched.Adaptive, 2, 2))
	var ran atomic.Bool
	if err := rt.Run(func(ctx *Ctx) { ran.Store(true) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran.Load() {
		t.Fatalf("body did not run")
	}
}
