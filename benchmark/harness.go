package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rows collects metrics by name; set refuses a second value for a name so
// a metric is emitted exactly once per source.
type rows map[string]metric

func (r rows) set(name string, v float64, unit string) {
	if _, dup := r[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	r[name] = metric{Value: v, Unit: unit}
}

// shape is a cluster layout derived from the CPU count.
type shape struct {
	places, workers int
	// oversubscribed marks a layout with more worker goroutines than
	// CPUs: unavoidable on one CPU (dag.Execute needs two workers), and
	// flagged in the output because its numbers measure the Go scheduler
	// as much as this one.
	oversubscribed bool
}

func (s shape) total() int { return s.places * s.workers }

func (s shape) String() string { return fmt.Sprintf("%dx%d", s.places, s.workers) }

// twoByK is 2 places × max(1, P/2) workers: the smallest layout with a
// remote steal path.
func twoByK(p int) shape {
	k := max(1, p/2)
	return shape{places: 2, workers: k, oversubscribed: 2*k > p}
}

// oneByP is 1 place × max(2, P) workers: private deques and intra-place
// steals only.
func oneByP(p int) shape {
	w := max(2, p)
	return shape{places: 1, workers: w, oversubscribed: w > p}
}

// env is what every workload is built from.
type env struct {
	p     int   // CPUs, also GOMAXPROCS
	seed  int64 // drives app inputs, core.Config.Seed and sim.Options.Seed
	quick bool  // smoke sizing: tiny inputs, one set-up, short probes
	// traced selects the traced run's sizing: sequential references are
	// timed (median of seqTimings) instead of run once for their
	// checksum, and runtime workloads build a fresh runtime per pass so a
	// traced pass and its untraced partner differ only in the recorder.
	traced bool
}

// seqTimings is how often a traced run times each sequential reference.
func (e env) seqTimings() int {
	switch {
	case !e.traced || e.quick:
		return 1
	default:
		return 5
	}
}

// pass is what one pass over a workload's inputs reports.
type pass struct {
	wall      time.Duration // time to solution of this pass
	units     int64         // tasks, simulator events or jobs done
	attempted int64         // verified operations
	failed    int64         // of which wrong, refused or timed out
}

// workload is one of the six benchmark workloads. setup builds inputs and
// references, brings the system up and runs one warm-up pass; pass runs
// every input once, verifying each output, with spans recorded when tr is
// non-nil; layer adds the per-layer rows the traced passes accumulated;
// teardown stops everything setup started and reports a conservation
// violation as an error.
type workload interface {
	setup() error
	pass(tr *tracer) (pass, error)
	layer(r rows, untracedPassMS float64) error
	teardown() error
}

// workloadNames is the canonical order; it is also the order in which a
// per-layer metric's home workload is looked up.
var workloadNames = []string{"rt-fine", "rt-local", "rt-coarse", "dag-linalg", "sim-paper", "svc-mesh"}

// unitOfWork names what work_per_s counts on each workload.
var unitOfWork = map[string]string{
	"rt-fine": "tasks", "rt-local": "tasks", "rt-coarse": "tasks",
	"dag-linalg": "tasks", "sim-paper": "events", "svc-mesh": "jobs",
}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "rt-fine", "rt-local", "rt-coarse":
		return newRTWorkload(name, e), nil
	case "dag-linalg":
		return newDAGWorkload(e), nil
	case "sim-paper":
		return newSimWorkload(e), nil
	case "svc-mesh":
		return newSvcWorkload(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// guarded runs fn under a watchdog: a workload that has not returned
// within limit is reported with a dump of every goroutine instead of
// hanging the run (dag.Execute on a single worker is the known way to
// hang: its coordinator blocks inside the only worker). The stuck
// goroutine is abandoned; the caller is expected to exit.
func guarded(name string, limit time.Duration, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		var buf bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&buf, 2) // writes to memory cannot fail
		return fmt.Errorf("workload %s: watchdog: no result after %v; goroutines:\n%s", name, limit, buf.String())
	}
}

// run is the outcome of measuring one workload one way.
type run struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   rows  `json:"metrics"`
}

// The end-to-end run sets the workload up repeatedly and reports the
// median as setup_s, so one slow bring-up does not decide it: at least
// minSetups times, and on while the set-ups so far have taken less than
// setupBudget (a 40 ms bring-up needs more repeats than an 800 ms one to
// give a steady median), but never more than maxSetups times.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// endToEnd is an end-to-end run with the samples behind its metrics.
type endToEnd struct {
	run
	setupS []float64 // every set-up, in order
	passMS []float64 // every pass of the window, in order
}

// measureEndToEnd sets the workload up (repeatedly, keeping the last), then
// runs back-to-back passes with tracing off for the window.
func measureEndToEnd(name string, e env, window time.Duration) (endToEnd, error) {
	var out endToEnd
	var w workload
	more := func() bool {
		n, spent := len(out.setupS), time.Duration(sum(out.setupS)*float64(time.Second))
		if e.quick {
			return n < 1
		}
		return n < minSetups || (n < maxSetups && spent < setupBudget)
	}
	for more() {
		if w != nil {
			if err := w.teardown(); err != nil {
				return out, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = newWorkload(name, e); err != nil {
			return out, err
		}
		if err := w.setup(); err != nil {
			return out, fmt.Errorf("%s: set-up: %w", name, err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}
	runtime.GC()

	var units []float64
	for start := time.Now(); len(out.passMS) == 0 || time.Since(start) < window; {
		p, err := w.pass(nil)
		if err != nil {
			return out, fmt.Errorf("%s: pass %d: %w", name, len(out.passMS), err)
		}
		out.passMS = append(out.passMS, p.wall.Seconds()*1e3)
		units = append(units, float64(p.units))
		out.Attempted += p.attempted
		out.Failed += p.failed
	}
	if err := w.teardown(); err != nil {
		return out, fmt.Errorf("%s: %w", name, err)
	}
	// The fast decile, not the median: interference from the sandbox's
	// neighbours only ever adds time, arrives in regimes that outlast a
	// run, and moved the median of identical runs by up to 19 % where it
	// moved the fast decile by 7 % (README, "Why the fast decile").
	p10 := percentile(sorted(out.passMS), 10)
	out.Correct = out.Failed == 0
	out.Metrics = rows{}
	out.Metrics.set("setup_s", median(out.setupS), "s")
	out.Metrics.set("pass_ms_p10", p10, "ms")
	out.Metrics.set("work_per_s", median(units)/(p10/1e3), "1/s")
	return out, nil
}

// medianPassMS runs passes+1 untraced passes, the first as a warm-up, and
// returns the median wall time of the rest; a wrong output is an error. The
// side experiments of the traced run (another deque kind, blind placement)
// use it.
func medianPassMS(passes int, one func() (pass, error)) (float64, error) {
	var ms []float64
	for i := 0; i <= passes; i++ {
		p, err := one()
		if err != nil {
			return 0, err
		}
		if p.failed > 0 {
			return 0, fmt.Errorf("%d of %d outputs wrong", p.failed, p.attempted)
		}
		if i > 0 {
			ms = append(ms, p.wall.Seconds()*1e3)
		}
	}
	return median(ms), nil
}

// sidePasses is how many passes such a side experiment measures.
func (e env) sidePasses() int {
	if e.quick {
		return 2
	}
	return 9
}

// tracedWindow is what the traced run keeps of one workload.
type tracedWindow struct {
	rows      rows
	attempted int64
	failed    int64
}

// measureTraced runs one workload for the window as order-flipped pairs of
// an untraced and a traced pass, so both see the same interference and the
// collector's period cannot settle on one side (the estimator
// cmd/distws-bench arrived at after a fixed order read -16 % on a null
// experiment). Untraced passes give the harness rows and the base of the
// tracing overhead; traced passes give spans and recorder events.
func measureTraced(name string, e env, window time.Duration, tr *tracer) (tracedWindow, error) {
	e.traced = true
	w, err := newWorkload(name, e)
	if err != nil {
		return tracedWindow{}, err
	}
	if err := w.setup(); err != nil {
		return tracedWindow{}, fmt.Errorf("%s: set-up: %w", name, err)
	}
	runtime.GC()

	out := tracedWindow{rows: rows{}}
	var plain, traced []float64
	var mallocs, bytesAlloc uint64
	one := func(t *tracer) error {
		var before, after runtime.MemStats
		if t == nil {
			runtime.ReadMemStats(&before)
		}
		p, err := w.pass(t)
		if err != nil {
			return fmt.Errorf("%s: pass: %w", name, err)
		}
		out.attempted += p.attempted
		out.failed += p.failed
		if t == nil {
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			bytesAlloc += after.TotalAlloc - before.TotalAlloc
			plain = append(plain, p.wall.Seconds()*1e3)
		} else {
			traced = append(traced, p.wall.Seconds()*1e3)
		}
		return nil
	}
	for start, i := time.Now(), 0; i < 2 || time.Since(start) < window; i++ {
		first, second := (*tracer)(nil), tr
		if i%2 == 1 {
			first, second = tr, nil
		}
		if err := one(first); err != nil {
			return tracedWindow{}, err
		}
		if err := one(second); err != nil {
			return tracedWindow{}, err
		}
	}

	asc := sorted(plain)
	tail := tailPercentile(len(asc))
	n := float64(len(plain))
	r := out.rows
	r.set("harness.samples", n, "count")
	r.set("harness.tail_pct", tail, "%")
	r.set("harness.pass_ms_p50", percentile(asc, 50), "ms")
	r.set("harness.pass_ms_tail", percentile(asc, tail), "ms")
	r.set("harness.allocs_per_pass", float64(mallocs)/n, "count")
	r.set("harness.alloc_mb_per_pass", float64(bytesAlloc)/n/(1<<20), "MB")
	r.set("harness.tracing_overhead_pct", 100*(sum(traced)-sum(plain))/sum(plain), "%")
	if err := w.layer(r, percentile(asc, 50)); err != nil {
		return tracedWindow{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := w.teardown(); err != nil {
		return tracedWindow{}, fmt.Errorf("%s: %w", name, err)
	}
	return out, nil
}
