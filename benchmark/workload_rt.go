package main

import (
	"fmt"
	"time"

	"distws/internal/apps"
	"distws/internal/apps/suite"
	"distws/internal/apps/uts"
	"distws/internal/core"
	"distws/internal/deque"
	"distws/internal/metrics"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/topology"
)

// rtApp is one fork-join application with its verified reference.
type rtApp struct {
	name  string
	app   apps.App
	want  uint64  // checksum a correct parallel run returns
	seqMS float64 // median sequential-reference time (traced run only)
}

// rtWorkload runs fork-join applications on the goroutine runtime:
//
//	rt-fine    uts, turingring, quicksort, kmeans on 2×k under DistWS
//	rt-local   the same four on 1×P under X10WS
//	rt-coarse  agglom, dmg, dmr, nbody at scale 4 on 2×k under DistWS
type rtWorkload struct {
	name   string
	e      env
	shape  shape
	policy sched.Kind
	apps   []rtApp
	rt     *core.Runtime // long-lived; nil in the traced run (fresh per pass)
	rec    *obs.Recorder

	// Accumulated over traced passes.
	tracedPasses int
	tracedWallNS int64
	counts       []int64 // Σ over traced passes, indexed like coreCounters
	core         coreTrace
	appMS        map[string][]float64
}

var (
	fineApps   = []string{"uts", "turingring", "quicksort", "kmeans"}
	coarseApps = []string{"agglom", "dmg", "dmr", "nbody"}
)

func newRTWorkload(name string, e env) *rtWorkload {
	w := &rtWorkload{name: name, e: e, policy: sched.DistWS, shape: twoByK(e.p),
		counts: make([]int64, len(coreCounters)), appMS: map[string][]float64{}}
	if name == "rt-local" {
		w.policy, w.shape = sched.X10WS, oneByP(e.p)
	}
	return w
}

// utsNodes is the tree size the fine workloads aim for. UTS tree size
// swings 20× with the seed (810 to 17 853 nodes over seeds 1-8 at the
// suite's default shape), which would make every rt-fine number a
// function of the seed; the root's fan-out is tuned instead, per seed,
// until the tree has about this many nodes.
const utsNodes = 16_000

// sizedUTS returns a UTS instance for seed with about nodes nodes. The
// root's children head independent subtrees, so the node count grows
// monotonically with the fan-out: jump to the proportional guess, then
// walk to the crossing and keep the nearer side.
func sizedUTS(seed int64, nodes int) *uts.App {
	const warmup = 8 // shallower than the suite's 11: ~400-node subtrees, so the walk lands within ~2 %
	at := func(k int) (*uts.App, int) {
		a := uts.New(k, warmup, 400_000, seed)
		return a, a.Count()
	}
	k := 32
	best, got := at(k)
	if got > 0 {
		k = max(1, k*nodes/got)
		best, got = at(k)
	}
	dir := 1
	if got > nodes {
		dir = -1
	}
	for k+dir >= 1 {
		k += dir
		a, c := at(k)
		if abs(c-nodes) < abs(got-nodes) {
			best, got = a, c
		}
		if (dir > 0 && c >= nodes) || (dir < 0 && c <= nodes) {
			break
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (w *rtWorkload) cluster() topology.Cluster {
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = w.shape.places, w.shape.workers
	return cl
}

func (w *rtWorkload) config(kind deque.Kind, rec *obs.Recorder) core.Config {
	return core.Config{Cluster: w.cluster(), Policy: w.policy, Deque: kind, Seed: w.e.seed, Recorder: rec}
}

func (w *rtWorkload) setup() error {
	names, scale := fineApps, suite.Small
	if w.name == "rt-coarse" {
		names, scale = coarseApps, suite.Medium
	}
	nodes := utsNodes
	if w.e.quick {
		scale, nodes = suite.Small, utsNodes/8
	}
	for _, n := range names {
		ra := rtApp{name: n}
		if n == "uts" {
			// Parallel returns the order-independent XOR checksum, not
			// Sequential's ordered hash, so that is the reference.
			u := sizedUTS(w.e.seed, nodes)
			ra.app, ra.want = u, u.ChecksumXOR()
		} else {
			a, err := suite.ByName(n, scale, w.e.seed)
			if err != nil {
				return err
			}
			ra.app, ra.want = a, a.Sequential()
		}
		if w.e.traced {
			ra.seqMS = timeMedianMS(w.e.seqTimings(), func() { ra.app.Sequential() })
		}
		w.apps = append(w.apps, ra)
	}
	if w.e.traced {
		// Whole passes must fit a ring: ~3 events per task, and worker 0
		// of a place also carries every spawn homed there. Configure
		// allocates the rings now, so the first traced pass does not;
		// core.New reconfigures the same shape and reuses them.
		w.rec = obs.NewRecorder(obs.RecorderOptions{TrackCapacity: 1 << 17})
		w.rec.Configure(w.shape.places, w.shape.workers, nil, obs.WallNS)
	} else {
		rt, err := core.New(w.config(deque.KindMutex, nil))
		if err != nil {
			return err
		}
		w.rt = rt
	}
	_, err := w.pass(nil) // warm-up
	return err
}

// timeMedianMS times fn n times and returns the median in ms.
func timeMedianMS(n int, fn func()) float64 {
	ms := make([]float64, n)
	for i := range ms {
		start := time.Now()
		fn()
		ms[i] = time.Since(start).Seconds() * 1e3
	}
	return median(ms)
}

// runApps runs and times every app once on rt, verifying each checksum.
func (w *rtWorkload) runApps(rt *core.Runtime, tr *tracer, root int32) (pass, error) {
	var p pass
	begin := time.Now()
	for i := range w.apps {
		a := &w.apps[i]
		s := tr.begin("apps", a.name, root, int64(w.tracedPasses))
		start := time.Now()
		got, err := a.app.Parallel(rt)
		d := time.Since(start)
		tr.end(s)
		if err != nil {
			return p, fmt.Errorf("%s: %w", a.name, err)
		}
		if tr != nil {
			w.appMS[a.name] = append(w.appMS[a.name], d.Seconds()*1e3)
		}
		p.attempted++
		if got != a.want {
			p.failed++
		}
	}
	p.wall = time.Since(begin)
	return p, nil
}

func (w *rtWorkload) pass(tr *tracer) (pass, error) {
	rt := w.rt
	if rt == nil {
		var rec *obs.Recorder
		if tr != nil {
			rec = w.rec
		}
		var err error
		if rt, err = core.New(w.config(deque.KindMutex, rec)); err != nil {
			return pass{}, err
		}
		defer rt.Shutdown()
	}
	before := rt.Metrics()
	root := tr.begin("harness", w.name+" pass", -1, int64(w.tracedPasses))
	p, err := w.runApps(rt, tr, root)
	tr.end(root)
	if err != nil {
		return p, err
	}
	if tr == nil {
		p.units = rt.Metrics().TasksExecuted - before.TasksExecuted
		return p, nil
	}
	// Counters settle once the workers have exited; the deferred second
	// Shutdown is a no-op.
	rt.Shutdown()
	after := rt.Metrics()
	p.units = after.TasksExecuted - before.TasksExecuted
	w.tracedPasses++
	w.tracedWallNS += p.wall.Nanoseconds()
	for i, c := range coreCounters {
		w.counts[i] += c.get(after) - c.get(before)
	}
	ct := analyzeCore(w.rec.Snapshot())
	w.core.taskSelfNS += ct.taskSelfNS
	w.core.remoteNS = append(w.core.remoteNS, ct.remoteNS...)
	w.core.localNS = append(w.core.localNS, ct.localNS...)
	w.core.dropped += ct.dropped
	return p, nil
}

// coreCounters are the rt.Metrics() counters reported per traced pass.
var coreCounters = []struct {
	row, unit string
	get       func(metrics.Snapshot) int64
}{
	{"core.tasks_per_pass", "count", func(s metrics.Snapshot) int64 { return s.TasksExecuted }},
	{"core.spawns_per_pass", "count", func(s metrics.Snapshot) int64 { return s.TasksSpawned }},
	{"core.local_steals_per_pass", "count", func(s metrics.Snapshot) int64 { return s.LocalSteals }},
	{"core.remote_steals_per_pass", "count", func(s metrics.Snapshot) int64 { return s.RemoteSteals }},
	{"core.failed_sweeps_per_pass", "count", func(s metrics.Snapshot) int64 { return s.FailedSteals }},
	{"core.remote_probes_per_pass", "count", func(s metrics.Snapshot) int64 { return s.RemoteProbes }},
	{"core.messages_per_pass", "count", func(s metrics.Snapshot) int64 { return s.Messages }},
	{"core.bytes_per_pass", "B", func(s metrics.Snapshot) int64 { return s.BytesTransferred }},
}

func (w *rtWorkload) layer(r rows, untracedPassMS float64) error {
	for i, c := range coreCounters {
		r.set(c.row, float64(w.counts[i])/float64(w.tracedPasses), c.unit)
	}
	tasks := float64(w.counts[0])
	r.set("core.steals_per_task", float64(w.counts[2]+w.counts[3])/tasks, "ratio")

	workerNS := float64(w.tracedWallNS) * float64(w.shape.total())
	r.set("core.busy_fraction", float64(w.core.taskSelfNS)/workerNS, "ratio")
	r.set("core.overhead_ns_per_task", (workerNS-float64(w.core.taskSelfNS))/tasks, "ns")
	if ns := sorted(ints(w.core.remoteNS)); len(ns) > 0 {
		r.set("core.steal_remote_ns_p50", percentile(ns, 50), "ns")
		r.set("core.steal_remote_ns_p99", percentile(ns, 99), "ns")
	}
	if ns := ints(w.core.localNS); len(ns) > 0 {
		r.set("core.steal_local_ns_p50", median(ns), "ns")
	}
	r.set("obs.dropped_events", float64(w.core.dropped), "count")
	r.set("obs.runtime_tracing_overhead_pct", r["harness.tracing_overhead_pct"].Value, "%")

	var seq float64
	for _, a := range w.apps {
		r.set("apps."+a.name+".parallel_ms_p50", median(w.appMS[a.name]), "ms")
		r.set("apps."+a.name+".seq_ms", a.seqMS, "ms")
		seq += a.seqMS
	}
	r.set("harness.speedup_vs_seq", seq/untracedPassMS, "ratio")

	if w.name == "rt-fine" {
		// The deque axis on the real runtime: the same inputs, tracing
		// off, one fresh runtime per kind.
		for _, k := range deque.Kinds() {
			ms, err := w.kindPassMS(k)
			if err != nil {
				return fmt.Errorf("deque %v: %w", k, err)
			}
			r.set("core.rt_fine_pass_ms."+k.String(), ms, "ms")
		}
	}
	return nil
}

// kindPassMS is the median pass time on a runtime built with deque kind k.
func (w *rtWorkload) kindPassMS(k deque.Kind) (float64, error) {
	rt, err := core.New(w.config(k, nil))
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	return medianPassMS(w.e.sidePasses(), func() (pass, error) { return w.runApps(rt, nil, -1) })
}

func (w *rtWorkload) teardown() error {
	if w.rt != nil {
		w.rt.Shutdown()
	}
	return nil
}
