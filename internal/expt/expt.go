package expt

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/apps"
	"distws/internal/apps/suite"
	"distws/internal/deque"
	"distws/internal/metrics"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/trace"
)

// Runner executes experiments against a fixed application suite and
// cluster, caching generated traces. Every table and figure enumerates its
// independent simulation cells into a job list executed by a bounded
// worker pool (see forEach); results are collected by cell index and rows
// are assembled in the original presentation order, so the rendered output
// is byte-identical to a sequential run. Safe for concurrent use.
type Runner struct {
	Seed    int64
	Cluster topology.Cluster
	Apps    []apps.App

	// Workers bounds how many simulation cells run concurrently. Zero
	// means GOMAXPROCS; 1 forces fully sequential execution (useful to
	// verify determinism or to profile a single-threaded run).
	Workers int

	mu    sync.Mutex
	cache map[string]*traceEntry
	// appLocks serializes trace generation per application: App.Trace
	// implementations may use receiver fields as scratch state (e.g.
	// turingring zeroes its flop-burn knob during generation), so two
	// place counts of the same app must not generate concurrently.
	appLocks map[string]*sync.Mutex
}

// traceEntry is a singleflight slot: concurrent requests for the same
// (app, places) trace share one generation instead of racing to build
// duplicate graphs.
type traceEntry struct {
	once sync.Once
	g    *trace.Graph
	err  error
}

// New returns a Runner over the paper suite at the given scale with the
// paper's 16×8 cluster.
func New(scale suite.Scale, seed int64) *Runner {
	return &Runner{
		Seed:     seed,
		Cluster:  topology.Paper(),
		Apps:     suite.Paper(scale, seed),
		cache:    make(map[string]*traceEntry),
		appLocks: make(map[string]*sync.Mutex),
	}
}

// Trace returns (and caches) app's task graph for a cluster with places
// places. The graph is generated exactly once per (app, places) key — even
// under concurrent callers — and shared read-only across every policy run
// that replays it (the simulator never mutates a graph; see
// TestPoliciesDoNotMutateSharedGraph).
func (r *Runner) Trace(a apps.App, places int) (*trace.Graph, error) {
	key := fmt.Sprintf("%s/%d", a.Name(), places)
	r.mu.Lock()
	e, ok := r.cache[key]
	if !ok {
		e = &traceEntry{}
		r.cache[key] = e
	}
	lk, ok := r.appLocks[a.Name()]
	if !ok {
		lk = new(sync.Mutex)
		r.appLocks[a.Name()] = lk
	}
	r.mu.Unlock()
	e.once.Do(func() {
		lk.Lock()
		defer lk.Unlock()
		e.g, e.err = a.Trace(places)
	})
	return e.g, e.err
}

// workers resolves the effective pool size.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs job(0..n-1) on a bounded worker pool and returns the
// lowest-index error (so the reported failure does not depend on
// scheduling). Jobs must be independent and write only to their own cell.
func (r *Runner) forEach(n int, job func(i int) error) error {
	workers := r.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) simulate(a apps.App, places int, policy sched.Kind) (*sim.Result, error) {
	g, err := r.Trace(a, places)
	if err != nil {
		return nil, fmt.Errorf("expt: trace %s: %w", a.Name(), err)
	}
	cl := r.Cluster.WithPlaces(places)
	res, err := sim.Run(g, cl, policy, sim.Options{Seed: r.Seed})
	if err != nil {
		return nil, fmt.Errorf("expt: sim %s/%v: %w", a.Name(), policy, err)
	}
	return res, nil
}

// threePolicies is the presentation order of the selective-stealing
// comparison exhibits (Tables II/III, Figs. 6/7).
var threePolicies = [3]sched.Kind{sched.X10WS, sched.DistWSNS, sched.DistWS}

// perAppPolicy runs one simulation per (app, policy) cell at the full
// cluster, fanning the |apps|×|policies| grid across the worker pool, and
// returns results indexed [app][policy].
func (r *Runner) perAppPolicy(appList []apps.App, policies []sched.Kind) ([][]*sim.Result, error) {
	out := make([][]*sim.Result, len(appList))
	for i := range out {
		out[i] = make([]*sim.Result, len(policies))
	}
	err := r.forEach(len(appList)*len(policies), func(i int) error {
		ai, ki := i/len(policies), i%len(policies)
		res, err := r.simulate(appList[ai], r.Cluster.Places, policies[ki])
		if err != nil {
			return err
		}
		out[ai][ki] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --------------------------------------------------------------------
// Fig. 3 — steals-to-task ratio.

// Fig3Row is one bar of Fig. 3.
type Fig3Row struct {
	App    string
	Steals int64
	Tasks  int64
	Ratio  float64
}

// Fig3 runs every app under DistWS on the full cluster and reports the
// steals-to-task ratio (paper: between 1e-4 and 1e-5... at benchmark
// scale; at reduced scale the ratio is correspondingly larger, and the
// comparison of interest is that it stays ≪ 1).
func (r *Runner) Fig3() ([]Fig3Row, error) {
	rows := make([]Fig3Row, len(r.Apps))
	err := r.forEach(len(r.Apps), func(i int) error {
		a := r.Apps[i]
		res, err := r.simulate(a, r.Cluster.Places, sched.DistWS)
		if err != nil {
			return err
		}
		rows[i] = Fig3Row{
			App:    a.Name(),
			Steals: res.Counters.Steals(),
			Tasks:  res.Counters.TasksExecuted,
			Ratio:  res.Counters.StealsToTaskRatio(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig3 formats Fig. 3.
func RenderFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — Steals-to-task ratio (DistWS, 128 workers)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "App", "Steals", "Tasks", "Ratio")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %12d %12d %12.2e\n",
			PaperName[row.App], row.Steals, row.Tasks, row.Ratio)
	}
	return b.String()
}

// --------------------------------------------------------------------
// Fig. 4 — sequential execution time.

// Fig4Row is one bar of Fig. 4.
type Fig4Row struct {
	App string
	// VirtualMS is the trace's sequential time in virtual milliseconds
	// (what the simulator's speedups are measured against).
	VirtualMS float64
	// WallMS is the measured wall-clock time of the real sequential
	// implementation at the configured scale on this host.
	WallMS float64
}

// Fig4 measures sequential execution times. Trace generation is fanned out
// across the pool, but the wall-clock measurements themselves run strictly
// one at a time: concurrent sequential runs would contend for cores and
// inflate each other's measured times.
func (r *Runner) Fig4() ([]Fig4Row, error) {
	if err := r.forEach(len(r.Apps), func(i int) error {
		_, err := r.Trace(r.Apps[i], r.Cluster.Places)
		return err
	}); err != nil {
		return nil, err
	}
	var rows []Fig4Row
	for _, a := range r.Apps {
		g, err := r.Trace(a, r.Cluster.Places)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		a.Sequential()
		wall := time.Since(start)
		rows = append(rows, Fig4Row{
			App:       a.Name(),
			VirtualMS: float64(g.Sequential()) / 1e6,
			WallMS:    float64(wall.Nanoseconds()) / 1e6,
		})
	}
	return rows, nil
}

// RenderFig4 formats Fig. 4.
func RenderFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — Sequential execution time\n")
	fmt.Fprintf(&b, "%-12s %16s %16s\n", "App", "Virtual (ms)", "Host wall (ms)")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %16.1f %16.1f\n", PaperName[row.App], row.VirtualMS, row.WallMS)
	}
	return b.String()
}

// --------------------------------------------------------------------
// Fig. 5 — speedup sweep X10WS vs DistWS.

// Fig5Cell is one (worker count, policy pair) sample.
type Fig5Cell struct {
	Places  int
	Workers int
	X10WS   float64
	DistWS  float64
}

// Fig5Row is one application's speedup curves.
type Fig5Row struct {
	App   string
	Cells []Fig5Cell
	// BestGainPct is the largest DistWS improvement over X10WS across the
	// sweep, in percent.
	BestGainPct float64
	// PaperGainPct is the paper's quoted best improvement, if any.
	PaperGainPct float64
}

// Fig5 sweeps places 1..16 (8 workers each) under both schedulers. The
// |apps| × |placeCounts| × 2 cells are independent simulations and run on
// the worker pool; rows are assembled app-major afterwards.
func (r *Runner) Fig5(placeCounts []int) ([]Fig5Row, error) {
	if len(placeCounts) == 0 {
		placeCounts = []int{1, 2, 4, 8, 16}
	}
	policies := [2]sched.Kind{sched.X10WS, sched.DistWS}
	perApp := len(placeCounts) * len(policies)
	speed := make([]float64, len(r.Apps)*perApp)
	err := r.forEach(len(speed), func(i int) error {
		ai := i / perApp
		pi := (i % perApp) / len(policies)
		ki := i % len(policies)
		res, err := r.simulate(r.Apps[ai], placeCounts[pi], policies[ki])
		if err != nil {
			return err
		}
		speed[i] = res.Speedup()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for ai, a := range r.Apps {
		row := Fig5Row{App: a.Name(), PaperGainPct: PaperBestGainPct[a.Name()]}
		for pi, p := range placeCounts {
			base := ai*perApp + pi*len(policies)
			cell := Fig5Cell{
				Places:  p,
				Workers: p * r.Cluster.WorkersPerPlace,
				X10WS:   speed[base],
				DistWS:  speed[base+1],
			}
			row.Cells = append(row.Cells, cell)
			if p > 1 && cell.X10WS > 0 {
				gain := 100 * (cell.DistWS - cell.X10WS) / cell.X10WS
				if gain > row.BestGainPct {
					row.BestGainPct = gain
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig5 formats Fig. 5.
func RenderFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — Speedup over sequential, X10WS vs DistWS (8 workers/place)\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s", PaperName[row.App])
		for _, c := range row.Cells {
			fmt.Fprintf(&b, "  w=%-3d %6.1f/%-6.1f", c.Workers, c.X10WS, c.DistWS)
		}
		if row.PaperGainPct > 0 {
			fmt.Fprintf(&b, "  best gain %.0f%% (paper %.0f%%)", row.BestGainPct, row.PaperGainPct)
		} else {
			fmt.Fprintf(&b, "  best gain %.0f%%", row.BestGainPct)
		}
		b.WriteByte('\n')
	}
	b.WriteString("(cells are X10WS/DistWS speedups)\n")
	return b.String()
}

// --------------------------------------------------------------------
// Table I — task granularities.

// Table1Row compares measured and paper granularities.
type Table1Row struct {
	App        string
	MeasuredMS float64
	PaperMS    float64
}

// Table1 reports the mean flexible-task granularity of every trace,
// which the generators calibrate to the paper's Table I.
func (r *Runner) Table1() ([]Table1Row, error) {
	rows := make([]Table1Row, len(r.Apps))
	err := r.forEach(len(r.Apps), func(i int) error {
		a := r.Apps[i]
		g, err := r.Trace(a, r.Cluster.Places)
		if err != nil {
			return err
		}
		rows[i] = Table1Row{
			App:        a.Name(),
			MeasuredMS: float64(apps.MeanFlexibleCostNS(g)) / 1e6,
			PaperMS:    PaperGranularityMS[a.Name()],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable1 formats Table I.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — Task granularities (ms)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "App", "Measured", "Paper")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %12.3f %12.3f\n", PaperName[row.App], row.MeasuredMS, row.PaperMS)
	}
	return b.String()
}

// --------------------------------------------------------------------
// Table II — L1d miss rates.

// Table2Row is one application's modelled miss rates per policy.
type Table2Row struct {
	App                     string
	X10WS, DistWSNS, DistWS float64
	Paper                   [3]float64
}

// Table2 runs the three schedulers at 128 workers and reports modelled
// L1d miss rates.
func (r *Runner) Table2() ([]Table2Row, error) {
	results, err := r.perAppPolicy(r.Apps, threePolicies[:])
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(r.Apps))
	for i, a := range r.Apps {
		rows[i] = Table2Row{
			App:      a.Name(),
			X10WS:    results[i][0].Counters.CacheMissRate(),
			DistWSNS: results[i][1].Counters.CacheMissRate(),
			DistWS:   results[i][2].Counters.CacheMissRate(),
			Paper:    PaperMissRates[a.Name()],
		}
	}
	return rows, nil
}

// RenderTable2 formats Table II.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — L1d miss rates (%%) at 128 workers (measured | paper)\n")
	fmt.Fprintf(&b, "%-12s %18s %18s %18s\n", "App", "X10WS", "DistWS-NS", "DistWS")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %8.1f | %6.1f %8.1f | %6.1f %8.1f | %6.1f\n",
			PaperName[row.App],
			row.X10WS, row.Paper[0], row.DistWSNS, row.Paper[1], row.DistWS, row.Paper[2])
	}
	return b.String()
}

// --------------------------------------------------------------------
// Table III — messages across nodes.

// Table3Row is one application's message counts per policy.
type Table3Row struct {
	App                     string
	X10WS, DistWSNS, DistWS int64
	Paper                   [3]int64
}

// Table3 runs the three schedulers at 128 workers and reports messages
// transmitted across nodes.
func (r *Runner) Table3() ([]Table3Row, error) {
	results, err := r.perAppPolicy(r.Apps, threePolicies[:])
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(r.Apps))
	for i, a := range r.Apps {
		rows[i] = Table3Row{
			App:      a.Name(),
			X10WS:    results[i][0].Counters.Messages,
			DistWSNS: results[i][1].Counters.Messages,
			DistWS:   results[i][2].Counters.Messages,
			Paper:    PaperMessages[a.Name()],
		}
	}
	return rows, nil
}

// RenderTable3 formats Table III.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — Messages across nodes at 128 workers (measured | paper)\n")
	fmt.Fprintf(&b, "%-12s %22s %22s %22s\n", "App", "X10WS", "DistWS-NS", "DistWS")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %10d | %-10d %10d | %-10d %10d | %-10d\n",
			PaperName[row.App],
			row.X10WS, row.Paper[0], row.DistWSNS, row.Paper[1], row.DistWS, row.Paper[2])
	}
	return b.String()
}

// --------------------------------------------------------------------
// Fig. 6 — policy comparison at 128 workers.

// Fig6Row is one application's speedups at the full cluster.
type Fig6Row struct {
	App                     string
	X10WS, DistWSNS, DistWS float64
}

// Fig6 compares the three schedulers at 128 workers.
func (r *Runner) Fig6() ([]Fig6Row, error) {
	results, err := r.perAppPolicy(r.Apps, threePolicies[:])
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(r.Apps))
	for i, a := range r.Apps {
		rows[i] = Fig6Row{
			App:      a.Name(),
			X10WS:    results[i][0].Speedup(),
			DistWSNS: results[i][1].Speedup(),
			DistWS:   results[i][2].Speedup(),
		}
	}
	return rows, nil
}

// RenderFig6 formats Fig. 6.
func RenderFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — Speedups at 128 workers\n")
	fmt.Fprintf(&b, "%-12s %10s %12s %10s\n", "App", "X10WS", "DistWS-NS", "DistWS")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %10.1f %12.1f %10.1f\n",
			PaperName[row.App], row.X10WS, row.DistWSNS, row.DistWS)
	}
	return b.String()
}

// --------------------------------------------------------------------
// Fig. 7 — per-node CPU utilization.

// Fig7Row is one (app, policy) utilization series.
type Fig7Row struct {
	App      string
	Policy   sched.Kind
	Util     []float64
	Spread   metrics.Spread
	Variance float64
}

// Fig7 reports per-place utilization for every app under the three
// schedulers.
func (r *Runner) Fig7() ([]Fig7Row, error) {
	results, err := r.perAppPolicy(r.Apps, threePolicies[:])
	if err != nil {
		return nil, err
	}
	rows := make([]Fig7Row, 0, len(r.Apps)*len(threePolicies))
	for i, a := range r.Apps {
		for ki, k := range threePolicies {
			res := results[i][ki]
			rows = append(rows, Fig7Row{
				App:      a.Name(),
				Policy:   k,
				Util:     res.Utilization,
				Spread:   metrics.Summarize(res.Utilization),
				Variance: metrics.Variance(res.Utilization),
			})
		}
	}
	return rows, nil
}

// RenderFig7 formats Fig. 7 summaries.
func RenderFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — Per-node CPU utilization (paper: ~35%% disparity under X10WS, ~13%% variance under DistWS)\n")
	fmt.Fprintf(&b, "%-12s %-10s %8s %8s %8s %10s %10s\n",
		"App", "Policy", "Min%", "Max%", "Mean%", "Disparity", "Variance")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %-10s %8.1f %8.1f %8.1f %10.1f %10.1f\n",
			PaperName[row.App], row.Policy.String(),
			row.Spread.Min, row.Spread.Max, row.Spread.Mean, row.Spread.Disparity, row.Variance)
	}
	return b.String()
}

// --------------------------------------------------------------------
// §VIII-Q2 — granularity study on the micro apps.

// GranRow is one micro-app comparison.
type GranRow struct {
	App     string
	GranMS  float64
	X10WS   float64
	DistWS  float64
	GainPct float64 // DistWS over X10WS; negative = DistWS worse
}

// GranularityStudy runs the five fine-grained apps at the full cluster.
func (r *Runner) GranularityStudy() ([]GranRow, error) {
	microApps := suite.Micro(r.Seed)
	results, err := r.perAppPolicy(microApps, []sched.Kind{sched.X10WS, sched.DistWS})
	if err != nil {
		return nil, err
	}
	rows := make([]GranRow, len(microApps))
	for i, a := range microApps {
		g, err := r.Trace(a, r.Cluster.Places)
		if err != nil {
			return nil, err
		}
		row := GranRow{
			App:    a.Name(),
			GranMS: float64(apps.MeanFlexibleCostNS(g)) / 1e6,
			X10WS:  results[i][0].Speedup(),
			DistWS: results[i][1].Speedup(),
		}
		if row.X10WS > 0 {
			row.GainPct = 100 * (row.DistWS - row.X10WS) / row.X10WS
		}
		rows[i] = row
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].GranMS > rows[j].GranMS })
	return rows, nil
}

// RenderGranularity formats the granularity study.
func RenderGranularity(rows []GranRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§VIII-Q2 — Granularity study at 128 workers (fine-grained tasks do not profit from DistWS)\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %8s\n", "App", "Gran (ms)", "X10WS", "DistWS", "Gain%")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-16s %10.3f %10.1f %10.1f %8.1f\n",
			PaperName[row.App], row.GranMS, row.X10WS, row.DistWS, row.GainPct)
	}
	return b.String()
}

// --------------------------------------------------------------------
// §X — UTS: DistWS vs randomized and lifeline-based stealing.

// UTSRow is one policy's UTS result.
type UTSRow struct {
	Policy     sched.Kind
	MakespanMS float64
	Speedup    float64
	Messages   int64
	Steals     int64
}

// UTSStudy runs UTS under RandomWS, LifelineWS and DistWS at the full
// cluster (paper: lifeline wins on UTS; DistWS beats random by ~9%; and
// DistWS adds no overhead when every task is flexible).
func (r *Runner) UTSStudy() ([]UTSRow, error) {
	app := suite.UTS(r.Seed)
	g, err := r.Trace(app, r.Cluster.Places)
	if err != nil {
		return nil, err
	}
	policies := []sched.Kind{sched.RandomWS, sched.LifelineWS, sched.DistWS}
	rows := make([]UTSRow, len(policies))
	err = r.forEach(len(policies), func(i int) error {
		res, err := sim.Run(g, r.Cluster, policies[i], sim.Options{Seed: r.Seed})
		if err != nil {
			return err
		}
		rows[i] = UTSRow{
			Policy:     policies[i],
			MakespanMS: float64(res.MakespanNS) / 1e6,
			Speedup:    res.Speedup(),
			Messages:   res.Counters.Messages,
			Steals:     res.Counters.Steals(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderUTS formats the UTS study.
func RenderUTS(rows []UTSRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§X — UTS at 128 workers (paper: Lifeline > DistWS > Random; DistWS ≈ +9%% over Random)\n")
	fmt.Fprintf(&b, "%-12s %14s %10s %12s %10s\n", "Policy", "Makespan(ms)", "Speedup", "Messages", "Steals")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %14.1f %10.1f %12d %10d\n",
			row.Policy.String(), row.MakespanMS, row.Speedup, row.Messages, row.Steals)
	}
	return b.String()
}

// --------------------------------------------------------------------
// Adaptive study — online classification vs annotated policies.

// AdaptiveRow is one application's speedups in the adaptive comparison,
// plus how many online classification flips the controller performed.
type AdaptiveRow struct {
	App                        string
	DistWS, DistWSNS, RandomWS float64
	Adaptive                   float64
	GapPct                     float64 // Adaptive vs annotated DistWS; negative = adaptive slower
	Reclass                    int64
}

// AdaptiveStudy compares the annotation-free adaptive policy against
// annotated DistWS, non-selective DistWS-NS, and RandomWS across the
// paper suite at the full cluster. The claim under test: the feedback
// controller recovers the selective behaviour the paper obtains from
// programmer annotations (within a few percent of DistWS) while
// strictly beating both locality-oblivious baselines.
func (r *Runner) AdaptiveStudy() ([]AdaptiveRow, error) {
	policies := []sched.Kind{sched.DistWS, sched.DistWSNS, sched.RandomWS, sched.Adaptive}
	results, err := r.perAppPolicy(r.Apps, policies)
	if err != nil {
		return nil, err
	}
	rows := make([]AdaptiveRow, len(r.Apps))
	for i, a := range r.Apps {
		row := AdaptiveRow{
			App:      a.Name(),
			DistWS:   results[i][0].Speedup(),
			DistWSNS: results[i][1].Speedup(),
			RandomWS: results[i][2].Speedup(),
			Adaptive: results[i][3].Speedup(),
			Reclass:  results[i][3].Counters.Reclassifications,
		}
		if row.DistWS > 0 {
			row.GapPct = 100 * (row.Adaptive - row.DistWS) / row.DistWS
		}
		rows[i] = row
	}
	return rows, nil
}

// geomean returns the geometric mean of positive values (0 if any value
// is non-positive or the slice is empty).
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	acc := 1.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		acc *= v
	}
	return math.Pow(acc, 1/float64(len(vals)))
}

// RenderAdaptive formats the adaptive study with a geometric-mean
// aggregate line.
func RenderAdaptive(rows []AdaptiveRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive — online classification at 128 workers, zero annotations (target: within 5%% of DistWS, above DistWS-NS and Random)\n")
	fmt.Fprintf(&b, "%-12s %10s %12s %10s %10s %8s %8s\n",
		"App", "DistWS", "DistWS-NS", "Random", "Adaptive", "Gap%", "Reclass")
	agg := make([][]float64, 4)
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %10.1f %12.1f %10.1f %10.1f %8.1f %8d\n",
			PaperName[row.App], row.DistWS, row.DistWSNS, row.RandomWS,
			row.Adaptive, row.GapPct, row.Reclass)
		agg[0] = append(agg[0], row.DistWS)
		agg[1] = append(agg[1], row.DistWSNS)
		agg[2] = append(agg[2], row.RandomWS)
		agg[3] = append(agg[3], row.Adaptive)
	}
	fmt.Fprintf(&b, "%-12s %10.1f %12.1f %10.1f %10.1f\n",
		"geomean", geomean(agg[0]), geomean(agg[1]), geomean(agg[2]), geomean(agg[3]))
	return b.String()
}

// --------------------------------------------------------------------
// Contention study — shared-queue synchronization under thief pressure.

// ContentionWorkerCounts is the sweep of total virtual worker counts the
// contention study runs at. The interesting regime starts at the paper's
// 128 workers and scales past it: the mutex kind's critical section grows
// linearly with the number of thieves hammering one victim queue, while
// the fence-free kinds stay flat.
var ContentionWorkerCounts = []int{128, 256, 512, 1024}

const (
	// contentionTasksPerWorker scales the workload with the cluster so
	// thief pressure per queue stays constant across the sweep.
	contentionTasksPerWorker = 64
	// contentionTaskCostNS makes tasks fine-grained enough that queue
	// synchronization, not execution, dominates the victim's timeline.
	contentionTaskCostNS = 2_000
)

// contentionGraph builds the contention microbenchmark: fine-grained
// flexible tasks all homed at place 0, so every other place's workers
// must pull their share through place 0's shared queue.
func contentionGraph(workers int) (*trace.Graph, error) {
	b := trace.NewBuilder(fmt.Sprintf("contention-%dw", workers))
	for i := 0; i < workers*contentionTasksPerWorker; i++ {
		b.Root(trace.Task{CostNS: contentionTaskCostNS, Home: 0, Flexible: true})
	}
	return b.Graph()
}

// ContentionCell is one (worker count, deque kind) measurement.
type ContentionCell struct {
	Kind       deque.Kind
	MakespanMS float64
	// StealThroughput is tasks acquired by thieves per virtual second —
	// the study's figure of merit. Under saturation every kind migrates
	// (nearly) the same task population, so throughput differences are
	// pure synchronization cost.
	StealThroughput float64
	RemoteSteals    int64
	StealRequests   int64
	Donations       int64
	DuplicateTakes  int64
}

// ContentionRow is one worker count across every deque kind, in
// deque.Kinds() order.
type ContentionRow struct {
	Workers int
	Cells   []ContentionCell
	// RelaxedOverMutex is the relaxed kind's steal throughput over the
	// mutex kind's — the headline ratio (acceptance: ≥2x at 512 workers).
	RelaxedOverMutex float64
}

// Cell returns the row's measurement for kind k (zero value if absent).
func (row ContentionRow) Cell(k deque.Kind) ContentionCell {
	for _, c := range row.Cells {
		if c.Kind == k {
			return c
		}
	}
	return ContentionCell{}
}

// ContentionStudy sweeps ContentionWorkerCounts × deque.Kinds() over the
// contention microbenchmark with the shared-queue lock simulated
// (sim.Options.LockContention), under DistWS. This is the one exhibit
// that sets Options.Deque; every other cell runs the paper-faithful
// configuration, which prices no shared-queue synchronization.
func (r *Runner) ContentionStudy() ([]ContentionRow, error) {
	kinds := deque.Kinds()
	counts := ContentionWorkerCounts
	graphs := make([]*trace.Graph, len(counts))
	rows := make([]ContentionRow, len(counts))
	for i, workers := range counts {
		g, err := contentionGraph(workers)
		if err != nil {
			return nil, fmt.Errorf("expt: contention trace %dw: %w", workers, err)
		}
		graphs[i] = g
		rows[i] = ContentionRow{Workers: workers, Cells: make([]ContentionCell, len(kinds))}
	}
	err := r.forEach(len(counts)*len(kinds), func(i int) error {
		wi, ki := i/len(kinds), i%len(kinds)
		workers := counts[wi]
		places := workers / r.Cluster.WorkersPerPlace
		if places < 1 {
			places = 1
		}
		cl := r.Cluster.WithPlaces(places)
		res, err := sim.Run(graphs[wi], cl, sched.DistWS, sim.Options{
			Seed:           r.Seed,
			LockContention: true,
			Deque:          kinds[ki],
		})
		if err != nil {
			return fmt.Errorf("expt: contention %dw/%v: %w", workers, kinds[ki], err)
		}
		cell := ContentionCell{
			Kind:           kinds[ki],
			MakespanMS:     float64(res.MakespanNS) / 1e6,
			RemoteSteals:   res.Counters.RemoteSteals,
			StealRequests:  res.Counters.StealRequests,
			Donations:      res.Counters.Donations,
			DuplicateTakes: res.Counters.DuplicateTakes,
		}
		if res.MakespanNS > 0 {
			cell.StealThroughput = float64(res.Counters.TasksMigrated) /
				(float64(res.MakespanNS) / 1e9)
		}
		rows[wi].Cells[ki] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		mutex := rows[i].Cell(deque.KindMutex).StealThroughput
		relaxed := rows[i].Cell(deque.KindRelaxed).StealThroughput
		if mutex > 0 {
			rows[i].RelaxedOverMutex = relaxed / mutex
		}
	}
	return rows, nil
}

// RenderContention formats the contention study.
func RenderContention(rows []ContentionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Contention — steal throughput under a hammered shared queue (tasks/s acquired by thieves; relaxed target ≥2x mutex at 512 workers)\n")
	fmt.Fprintf(&b, "%8s %9s %14s %14s %10s %10s %10s %8s\n",
		"Workers", "Kind", "Makespan(ms)", "StealThru/s", "RemSteals", "Requests", "Donations", "DupTakes")
	for _, row := range rows {
		for _, c := range row.Cells {
			fmt.Fprintf(&b, "%8d %9s %14.2f %14.0f %10d %10d %10d %8d\n",
				row.Workers, c.Kind.String(), c.MakespanMS, c.StealThroughput,
				c.RemoteSteals, c.StealRequests, c.Donations, c.DuplicateTakes)
		}
		fmt.Fprintf(&b, "%8d %9s %14s relaxed/mutex = %.2fx\n", row.Workers, "", "", row.RelaxedOverMutex)
	}
	return b.String()
}
