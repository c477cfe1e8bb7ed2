package main

import (
	"fmt"
	"time"

	"distws/internal/apps/linalg"
	"distws/internal/apps/suite"
	"distws/internal/dag"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

// simCell is one simulation of the exhibit grid and what its first run
// produced; every later run of the cell must reproduce it exactly.
type simCell struct {
	group string // span name and sim.<group>_ms row: x10ws, distws, distwsns, dag
	name  string
	run   func(rec *obs.Recorder) (*sim.Result, error)

	makespanNS, events int64
}

// simWorkload regenerates the paper's simulator exhibits: sim.Run on the
// seven paper traces under X10WS, DistWS and DistWS-NS, and sim.RunDAG on
// the three dataflow graphs blind and data-aware, on the virtual 16×8
// cluster. Traces and graphs are built once in set-up.
type simWorkload struct {
	e     env
	cells []simCell
	rec   *obs.Recorder

	traceGenMS float64

	tracedPasses int
	dropped      int64                // recorder events overwritten, Σ over traced runs
	groupMS      map[string][]float64 // per untraced pass of the traced run: ms by group
}

func newSimWorkload(e env) *simWorkload {
	return &simWorkload{e: e, groupMS: map[string][]float64{}}
}

var simPolicies = []struct {
	group string
	kind  sched.Kind
}{{"x10ws", sched.X10WS}, {"distws", sched.DistWS}, {"distwsns", sched.DistWSNS}}

func (w *simWorkload) setup() error {
	cl := topology.Paper()
	opts := func(rec *obs.Recorder) sim.Options { return sim.Options{Seed: w.e.seed, Recorder: rec} }
	paper, graphs := suite.Paper(suite.Small, w.e.seed), linalg.Suite(w.e.seed)
	if w.e.quick {
		paper, graphs = paper[:2], graphs[2:]
	}
	start := time.Now()
	for _, a := range paper {
		g, err := a.Trace(cl.Places)
		if err != nil {
			return fmt.Errorf("trace %s: %w", a.Name(), err)
		}
		for _, pol := range simPolicies {
			w.cells = append(w.cells, simCell{group: pol.group, name: a.Name(),
				run: func(rec *obs.Recorder) (*sim.Result, error) { return sim.Run(g, cl, pol.kind, opts(rec)) }})
		}
	}
	for _, a := range graphs {
		g, err := a.Graph(cl.Places)
		if err != nil {
			return fmt.Errorf("graph %s: %w", a.Name(), err)
		}
		for _, pol := range []dag.Policy{dag.PolicyBlind, dag.PolicyDataAware} {
			w.cells = append(w.cells, simCell{group: "dag", name: a.Name() + "/" + pol.String(),
				run: func(rec *obs.Recorder) (*sim.Result, error) {
					return sim.RunDAG(g, cl, sched.DistWS, pol, opts(rec))
				}})
		}
	}
	w.traceGenMS = time.Since(start).Seconds() * 1e3
	if w.e.traced {
		w.rec = obs.NewRecorder(obs.RecorderOptions{})
		w.rec.Configure(cl.Places, cl.WorkersPerPlace, nil, obs.VirtualNS) // allocate the 128 rings before the first traced pass
	}
	_, err := w.pass(nil) // warm-up; also fixes each cell's reference result
	return err
}

func (w *simWorkload) pass(tr *tracer) (pass, error) {
	var rec *obs.Recorder
	if tr != nil {
		rec = w.rec
	}
	var p pass
	groupNS := map[string]int64{}
	root := tr.begin("harness", "sim-paper pass", -1, int64(w.tracedPasses))
	start := time.Now()
	for i := range w.cells {
		c := &w.cells[i]
		s := tr.begin("sim", c.group+" "+c.name, root, int64(w.tracedPasses))
		t0 := time.Now()
		res, err := c.run(rec)
		groupNS[c.group] += time.Since(t0).Nanoseconds()
		tr.end(s)
		if err != nil {
			return p, fmt.Errorf("%s %s: %w", c.group, c.name, err)
		}
		if c.events == 0 {
			c.makespanNS, c.events = res.MakespanNS, res.Events
		}
		p.attempted++
		if res.MakespanNS != c.makespanNS || res.Events != c.events {
			p.failed++ // the simulator is deterministic per seed, traced or not
		}
		p.units += res.Events
		if rec != nil {
			w.dropped += rec.Dropped()
		}
	}
	p.wall = time.Since(start)
	tr.end(root)
	switch {
	case tr != nil:
		w.tracedPasses++
	case w.e.traced: // the split by policy comes from the untraced passes
		for g, ns := range groupNS {
			w.groupMS[g] = append(w.groupMS[g], float64(ns)/1e6)
		}
	}
	return p, nil
}

func (w *simWorkload) layer(r rows, untracedPassMS float64) error {
	var events float64
	for _, c := range w.cells {
		events += float64(c.events)
	}
	runs := float64(len(w.cells))
	r.set("sim.events_per_pass", events, "count")
	r.set("sim.ns_per_event", untracedPassMS*1e6/events, "ns")
	r.set("sim.allocs_per_run", r["harness.allocs_per_pass"].Value/runs, "count")
	r.set("sim.bytes_per_run", r["harness.alloc_mb_per_pass"].Value*(1<<20)/runs, "B")
	r.set("sim.trace_gen_ms", w.traceGenMS, "ms")
	for _, g := range []string{"x10ws", "distws", "distwsns", "dag"} {
		r.set("sim."+g+"_ms", median(w.groupMS[g]), "ms")
	}
	r.set("obs.sim_tracing_overhead_pct", r["harness.tracing_overhead_pct"].Value, "%")
	r.set("obs.dropped_events", float64(w.dropped), "count")
	return nil
}

func (w *simWorkload) teardown() error { return nil }
