package micro

import (
	"math"
	"testing"

	"distws/internal/apps"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

// All five micro apps: a valid simulator trace that runs every task.
func TestSuiteSequentialParallelTrace(t *testing.T) {
	for _, app := range Suite() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			g, err := app.Trace(4)
			if err != nil {
				t.Fatalf("Trace: %v", err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			cl := topology.Paper()
			cl.Places, cl.WorkersPerPlace = 4, 2
			r, err := sim.Run(g, cl, sched.DistWS, sim.Options{Seed: 2})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if r.Counters.TasksExecuted != int64(g.NumTasks()) {
				t.Fatalf("executed %d of %d", r.Counters.TasksExecuted, g.NumTasks())
			}
		})
	}
}

// The granularities must match the paper's Table (§VIII-Q2): 0.12, 0.93,
// 0.005, 0.09, 0.006 ms.
func TestGranularitiesMatchPaper(t *testing.T) {
	wantMS := map[string]float64{
		"mergesort":     0.12,
		"skyline":       0.93,
		"montecarlo-pi": 0.005,
		"matchain":      0.09,
		"randomaccess":  0.006,
	}
	for _, app := range Suite() {
		g, err := app.Trace(4)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		got := float64(apps.MeanFlexibleCostNS(g)) / 1e6
		want := wantMS[app.Name()]
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("%s: granularity %.4f ms, want ~%.4f ms", app.Name(), got, want)
		}
	}
}
