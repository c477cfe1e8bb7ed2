package main

import (
	"fmt"
	"time"

	"distws/internal/apps/linalg"
	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/topology"
)

// dagApp is one dataflow application with its verified reference.
type dagApp struct {
	app   linalg.App
	want  uint64
	seqMS float64
}

// dagWorkload runs cholesky, lu and pipeline through dag.Execute with
// data-aware placement on 2×k.
type dagWorkload struct {
	e     env
	shape shape
	apps  []dagApp
	rt    *core.Runtime // long-lived; nil in the traced run (fresh per pass)
	rec   *obs.Recorder

	graphBuildMS float64

	// Accumulated over traced passes.
	tracedPasses int
	stats        dag.ExecStats
	dropped      int64
	appMS        map[string][]float64
}

func newDAGWorkload(e env) *dagWorkload {
	return &dagWorkload{e: e, shape: twoByK(e.p), appMS: map[string][]float64{}}
}

func (w *dagWorkload) newRuntime(rec *obs.Recorder) (*core.Runtime, error) {
	if w.shape.total() < 2 {
		// dag.Execute's coordinator blocks on its completion channel
		// inside a worker; with one worker nothing can complete.
		return nil, fmt.Errorf("dag-linalg needs at least 2 workers, shape is %v", w.shape)
	}
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = w.shape.places, w.shape.workers
	return core.New(core.Config{Cluster: cl, Policy: sched.DistWS, Seed: w.e.seed, Recorder: rec})
}

func (w *dagWorkload) setup() error {
	suite := linalg.Suite(w.e.seed)
	if w.e.quick {
		suite = []linalg.App{
			linalg.NewCholesky(64, 16, w.e.seed),
			linalg.NewLU(64, 16, w.e.seed),
			linalg.NewPipeline(8, 4, 256, w.e.seed),
		}
	}
	for _, a := range suite {
		da := dagApp{app: a, want: a.Sequential()}
		if w.e.traced {
			da.seqMS = timeMedianMS(w.e.seqTimings(), func() { a.Sequential() })
			start := time.Now()
			if _, err := a.Graph(w.shape.places); err != nil {
				return err
			}
			w.graphBuildMS += time.Since(start).Seconds() * 1e3
		}
		w.apps = append(w.apps, da)
	}
	if w.e.traced {
		w.rec = obs.NewRecorder(obs.RecorderOptions{TrackCapacity: 1 << 15})
		w.rec.Configure(w.shape.places, w.shape.workers, nil, obs.WallNS) // allocate the rings before the first traced pass
	} else {
		rt, err := w.newRuntime(nil)
		if err != nil {
			return err
		}
		w.rt = rt
	}
	_, err := w.pass(nil) // warm-up
	return err
}

// runApps executes and times every graph once under pol, verifying each
// checksum.
func (w *dagWorkload) runApps(rt *core.Runtime, pol dag.Policy, tr *tracer, root int32) (pass, dag.ExecStats, error) {
	var p pass
	var st dag.ExecStats
	begin := time.Now()
	for _, a := range w.apps {
		s := tr.begin("dag", a.app.Name(), root, int64(w.tracedPasses))
		start := time.Now()
		got, one, err := a.app.Parallel(rt, pol)
		d := time.Since(start)
		tr.end(s)
		if err != nil {
			return p, st, fmt.Errorf("%s: %w", a.app.Name(), err)
		}
		if tr != nil {
			w.appMS[a.app.Name()] = append(w.appMS[a.app.Name()], d.Seconds()*1e3)
		}
		st.Released += one.Released
		st.ResidentHits += one.ResidentHits
		st.ResidentMisses += one.ResidentMisses
		st.FetchedBytes += one.FetchedBytes
		p.attempted++
		if got != a.want {
			p.failed++
		}
	}
	p.units = st.Released
	p.wall = time.Since(begin)
	return p, st, nil
}

func (w *dagWorkload) pass(tr *tracer) (pass, error) {
	rt := w.rt
	if rt == nil {
		var rec *obs.Recorder
		if tr != nil {
			rec = w.rec
		}
		var err error
		if rt, err = w.newRuntime(rec); err != nil {
			return pass{}, err
		}
		defer rt.Shutdown()
	}
	root := tr.begin("harness", "dag-linalg pass", -1, int64(w.tracedPasses))
	p, st, err := w.runApps(rt, dag.PolicyDataAware, tr, root)
	tr.end(root)
	if err != nil || tr == nil {
		return p, err
	}
	rt.Shutdown() // the recorder is quiescent once the workers have exited
	w.tracedPasses++
	w.stats.Released += st.Released
	w.stats.ResidentHits += st.ResidentHits
	w.stats.ResidentMisses += st.ResidentMisses
	w.stats.FetchedBytes += st.FetchedBytes
	w.dropped += w.rec.Dropped()
	return p, nil
}

func (w *dagWorkload) layer(r rows, untracedPassMS float64) error {
	n := float64(w.tracedPasses)
	var seq float64
	for _, a := range w.apps {
		r.set("apps."+a.app.Name()+".parallel_ms_p50", median(w.appMS[a.app.Name()]), "ms")
		r.set("apps."+a.app.Name()+".seq_ms", a.seqMS, "ms")
		seq += a.seqMS
	}
	tasks := float64(w.stats.Released) / n
	r.set("harness.speedup_vs_seq", seq/untracedPassMS, "ratio")
	r.set("dag.graph_build_ms", w.graphBuildMS, "ms")
	r.set("dag.execute_overhead_ns_per_task", (untracedPassMS*float64(w.shape.total())-seq)*1e6/tasks, "ns")
	r.set("dag.residency_rate", w.stats.ResidencyRate(), "%")
	r.set("dag.fetched_bytes_per_pass", float64(w.stats.FetchedBytes)/n, "B")
	r.set("obs.dropped_events", float64(w.dropped), "count")

	// Aware against blind on the real runtime: the same graphs, tracing
	// off, declared homes only.
	rt, err := w.newRuntime(nil)
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	ms, err := medianPassMS(w.e.sidePasses(), func() (pass, error) {
		p, _, err := w.runApps(rt, dag.PolicyBlind, nil, -1)
		return p, err
	})
	if err != nil {
		return fmt.Errorf("blind: %w", err)
	}
	r.set("dag.blind_pass_ms_p50", ms, "ms")
	return nil
}

func (w *dagWorkload) teardown() error {
	if w.rt != nil {
		w.rt.Shutdown()
	}
	return nil
}
