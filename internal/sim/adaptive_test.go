package sim

import (
	"testing"

	"distws/internal/adapt"
	"distws/internal/apps/suite"
	"distws/internal/sched"
	"distws/internal/task"
)

// classesOf snapshots the controller's classification of every kind.
func classesOf(c *adapt.Controller) []task.Class {
	out := make([]task.Class, c.NumKinds())
	for k := range out {
		out[k] = c.Classify(int32(k))
	}
	return out
}

// The adaptive classifier must reach a stable classification on every
// micro app: the flip count is bounded by the kind count (a pinned kind
// stops migrating, so the evidence that pinned it cannot reverse within
// the run), and replaying the same trace through the warmed controller
// moves nothing.
func TestAdaptiveConvergesOnMicroApps(t *testing.T) {
	cl := cluster(4, 2)
	for _, app := range suite.Micro() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			g, err := app.Trace(cl.Places)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			ctrl := adapt.New(adapt.Config{Places: cl.Places})
			r, err := Run(g, cl, sched.Adaptive, Options{Seed: 1, Adapt: ctrl})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if r.Counters.TasksExecuted != int64(g.NumTasks()) {
				t.Fatalf("executed %d of %d tasks", r.Counters.TasksExecuted, g.NumTasks())
			}
			flips := ctrl.Flips()
			if kinds := int64(ctrl.NumKinds()); flips > kinds {
				t.Fatalf("%d flips across %d kinds: classifier oscillating", flips, kinds)
			}
			if r.Counters.Reclassifications != flips {
				t.Fatalf("Reclassifications counter %d != controller flips %d",
					r.Counters.Reclassifications, flips)
			}
			// Stability: the same trace through the warmed controller must
			// not move any classification.
			before := classesOf(ctrl)
			if _, err := Run(g, cl, sched.Adaptive, Options{Seed: 1, Adapt: ctrl}); err != nil {
				t.Fatalf("replay Run: %v", err)
			}
			if got := ctrl.Flips(); got != flips {
				t.Fatalf("replay flipped %d more kinds (total %d): classification not stable",
					got-flips, got)
			}
			for k, cls := range classesOf(ctrl) {
				if cls != before[k] {
					t.Fatalf("kind %d drifted from %v to %v on replay", k, before[k], cls)
				}
			}
		})
	}
}

// Two adaptive runs from fresh controllers are byte-identical in their
// schedule outcomes: the controller is part of the deterministic core.
func TestAdaptiveDeterminism(t *testing.T) {
	g := flatGraph(t, 200, 500_000, 0, 1, true)
	a := mustRun(t, g, cluster(4, 2), sched.Adaptive)
	b := mustRun(t, g, cluster(4, 2), sched.Adaptive)
	if a.MakespanNS != b.MakespanNS || a.Counters != b.Counters {
		t.Fatalf("adaptive runs diverged: makespan %d vs %d", a.MakespanNS, b.MakespanNS)
	}
}
