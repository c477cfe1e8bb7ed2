package main

import (
	"fmt"
	"time"
)

// ledger is one traced run: every workload traced for its window, plus the
// fixed probes, all under one tracer.
type ledger struct {
	windows map[string]tracedWindow
	probes  rows
	spans   []span
}

// runLedger traces every workload in canonical order for its window and
// then runs the probes. The whole ledger is measured in every traced run,
// not only the selected workload's part of it: a later change is judged
// against all of it, and a row that is only ever measured when somebody
// thinks to ask for it is a row with no baseline.
func runLedger(e env, windows map[string]time.Duration) (*ledger, error) {
	tr := newTracer()
	led := &ledger{windows: map[string]tracedWindow{}}
	for _, name := range workloadNames {
		window := windows[name]
		err := guarded(name, 3*window+90*time.Second, func() error {
			tw, err := measureTraced(name, e, window, tr)
			led.windows[name] = tw
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	err := guarded("probes", 120*time.Second, func() (err error) {
		led.probes, err = runProbes(e, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	led.spans = tr.spans
	return led, nil
}

// perLayer resolves every listed per-layer metric for the selected
// workload: its own row when its traced window produced one (the rt-*
// workloads each have their own core.* rows, every workload its own
// harness.* rows), otherwise the row of the first workload in canonical
// order that did (sim.* always comes from sim-paper, service.* from
// svc-mesh), otherwise the probe's. The correctness counts cover every
// window of the run, since every window was verified.
func (l *ledger) perLayer(selected string, list []specMetric) (run, error) {
	have := rows{}
	sources := []rows{l.windows[selected].rows}
	for _, name := range workloadNames {
		sources = append(sources, l.windows[name].rows)
	}
	sources = append(sources, l.probes)
	for _, src := range sources {
		for name, m := range src {
			if _, ok := have[name]; !ok {
				have[name] = m
			}
		}
	}
	metrics, err := pick(list, have)
	if err != nil {
		return run{}, err
	}
	for name := range have {
		if _, ok := metrics[name]; !ok {
			return run{}, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	out := run{Metrics: metrics}
	for _, w := range l.windows {
		out.Attempted += w.attempted
		out.Failed += w.failed
	}
	out.Correct = out.Failed == 0
	return out, nil
}
