// Command distws-run executes one benchmark application under a chosen
// scheduling policy, either on the real goroutine runtime (verifying the
// result against the sequential reference) or on the virtual 128-worker
// cluster simulator, and prints the run's scheduler metrics. Fork-join
// and dataflow apps take the same path through either engine, with the
// same fault plan, trace recorder and live endpoint.
//
// Examples:
//
//	distws-run -app dmg -policy distws -mode sim -places 16 -workers 8
//	distws-run -app quicksort -policy x10ws -mode runtime -places 4 -workers 2
//	distws-run -app uts -mode sim -places 4 -workers 2 -crash-place 1 -crash-at 2ms -drop 0.01
//	distws-run -app cholesky -mode runtime -places 2 -workers 2 -crash-place 1 -crash-after-tasks 50
//	distws-run -app dmg -mode sim -trace dmg.trace          # record scheduling events
//	distws-run -app dmg -mode sim -trace t.json -trace-format chrome   # open in Perfetto
//	distws-run -app uts -mode runtime -listen 127.0.0.1:8080           # live /metrics
//	distws-run -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"distws/internal/apps"
	"distws/internal/apps/linalg"
	"distws/internal/apps/suite"
	"distws/internal/cliutil"
	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distws-run:", err)
		os.Exit(1)
	}
}

// pathFlags are the flags only some runs read: -scale a fork-join app,
// -dag-policy a dataflow app, -deque and -timeout -mode runtime. Every
// other flag applies to every run.
var pathFlags = []string{"scale", "dag-policy", "deque", "timeout"}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("distws-run", flag.ContinueOnError)
	var (
		appName = fs.String("app", "dmg", "application: "+strings.Join(appNames(), ", "))
		policy  = fs.String("policy", "distws", "scheduler: "+strings.Join(policyNames(), ", "))
		dagPol  = fs.String("dag-policy", "blind", "placement of a dataflow app: "+strings.Join(dag.PolicyNames(), ", "))
		dq      = fs.String("deque", "mutex", "worker-queue kind of -mode runtime: "+strings.Join(deque.KindNames(), ", "))
		mode    = fs.String("mode", "sim", "sim (virtual cluster) or runtime (real goroutine runtime)")
		places  = fs.Int("places", 16, "number of places (nodes)")
		workers = fs.Int("workers", 8, "workers per place")
		seed    = fs.Int64("seed", 1, "workload and scheduler seed")
		scale   = fs.Int("scale", 1, "workload scale multiplier of a fork-join app")
		timeout = fs.Duration("timeout", 0, "abort a runtime-mode run after this long (0 = no limit)")
		list    = fs.Bool("list", false, "list available applications and policies and exit")

		crashPlace = fs.Int("crash-place", -1, "place to crash mid-run (-1 = none)")
		crashAt    = fs.Duration("crash-at", 0, "instant of the crash: virtual time in sim mode, wall time since start in runtime mode")
		crashAfter = fs.Int64("crash-after-tasks", 0, "crash once the place has run this many tasks (either mode)")
		dropProb   = fs.Float64("drop", 0, "steal message drop probability [0,1]")
		dupProb    = fs.Float64("dup", 0, "steal reply duplication probability [0,1]")
		faultSeed  = fs.Int64("fault-seed", 1, "seed of the fault injector")

		partGroup = fs.String("partition", "", "comma-separated places forming one side of a network cut (e.g. 0,1)")
		partAt    = fs.Duration("partition-at", time.Millisecond, "when the partition takes effect")
		partHeal  = fs.Duration("partition-heal", 0, "when the partition heals (0 = never)")
		grayLink  = fs.String("gray", "", "gray-degraded link as from:to, * matching any place (e.g. 0:2, *:1)")
		grayExtra = fs.Duration("gray-extra", time.Millisecond, "extra one-way latency on the gray link")
		flapPlace = fs.Int("flap-place", -1, "place to flap down/up repeatedly (-1 = none)")
		flapAt    = fs.Duration("flap-at", time.Millisecond, "first flap outage instant")
		flapDown  = fs.Duration("flap-down", time.Millisecond, "length of each flap outage")
		flapUp    = fs.Duration("flap-up", time.Millisecond, "recovered time between flap outages")
		flapCount = fs.Int("flap-cycles", 1, "number of flap outages")
		joinPlace = fs.Int("join-place", -1, "place absent at start that joins mid-run (-1 = none)")
		joinAt    = fs.Duration("join-at", time.Millisecond, "when the absent place joins")
		drainPl   = fs.Int("drain-place", -1, "place to drain gracefully mid-run (-1 = none)")
		drainAt   = fs.Duration("drain-at", time.Millisecond, "when the graceful drain starts")

		traceOut    = fs.String("trace", "", "record scheduling events and write them to `file`")
		traceFormat = fs.String("trace-format", "events", "trace output format: events, chrome, csv, summary")
		traceCap    = fs.Int("trace-cap", 0, "per-worker trace ring capacity in events (0 = default)")
	)
	diag := cliutil.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if cliutil.VersionRequested() {
		cliutil.PrintVersion(stdout, "distws-run")
		return nil
	}

	if *list {
		fmt.Fprintln(stdout, "paper suite:", strings.Join(suite.Names(), " "))
		fmt.Fprintln(stdout, "dataflow suite:", strings.Join(linalg.Names(), " "))
		fmt.Fprintln(stdout, "uts")
		fmt.Fprintln(stdout, "policies:", strings.Join(policyNames(), " "))
		fmt.Fprintln(stdout, "dag policies:", strings.Join(dag.PolicyNames(), " "))
		return nil
	}

	// Validate every flag before any setup work, so a typo or a flag this
	// run would ignore fails at once with what is valid instead.
	k, err := sched.Parse(*policy)
	if err != nil {
		return fmt.Errorf("-policy %q: valid policies are: %s", *policy, strings.Join(policyNames(), " "))
	}
	if *mode != "sim" && *mode != "runtime" {
		return fmt.Errorf("-mode %q: valid modes are: sim runtime", *mode)
	}
	a, err := resolveApp(*appName, suite.Scale(*scale), *dagPol, *seed)
	if err != nil {
		return err
	}
	if err := refuseUnread(fs, a, *mode); err != nil {
		return err
	}
	dk, err := deque.ParseKind(*dq)
	if err != nil {
		return fmt.Errorf("-deque %q: valid kinds are: %s", *dq, strings.Join(deque.KindNames(), " "))
	}
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = *places, *workers
	if err := cl.Validate(); err != nil {
		return err
	}

	// The fault schedule: times are virtual nanoseconds in sim mode and
	// wall nanoseconds since the runtime started in runtime mode, so the
	// same flags give the same schedule on both clocks.
	var plan *fault.Plan
	if *dropProb > 0 || *dupProb > 0 || *crashPlace >= 0 || *partGroup != "" ||
		*grayLink != "" || *flapPlace >= 0 || *joinPlace >= 0 || *drainPl >= 0 {
		plan = &fault.Plan{Seed: *faultSeed, DropProb: *dropProb, DupProb: *dupProb}
	}
	if *crashPlace >= 0 {
		plan.Crashes = []fault.Crash{{Place: *crashPlace, AtNS: crashAt.Nanoseconds(), AfterTasks: *crashAfter}}
	}
	if *partGroup != "" {
		group, err := parsePlaces(*partGroup)
		if err != nil {
			return fmt.Errorf("-partition %q: %w", *partGroup, err)
		}
		plan.Partitions = []fault.Partition{{GroupA: group, AtNS: partAt.Nanoseconds(), HealNS: partHeal.Nanoseconds()}}
	}
	if *grayLink != "" {
		from, to, err := parseLink(*grayLink)
		if err != nil {
			return fmt.Errorf("-gray %q: %w", *grayLink, err)
		}
		plan.Grays = []fault.Gray{{From: from, To: to, ExtraNS: grayExtra.Nanoseconds()}}
	}
	if *flapPlace >= 0 {
		plan.Flaps = []fault.Flap{{Place: *flapPlace, AtNS: flapAt.Nanoseconds(),
			DownNS: flapDown.Nanoseconds(), UpNS: flapUp.Nanoseconds(), Cycles: *flapCount}}
	}
	if *joinPlace >= 0 {
		plan.Joins = []fault.Join{{Place: *joinPlace, AtNS: joinAt.Nanoseconds()}}
	}
	if *drainPl >= 0 {
		plan.Drains = []fault.Drain{{Place: *drainPl, AtNS: drainAt.Nanoseconds()}}
	}

	if err := diag.Start(); err != nil {
		return err
	}
	defer diag.Stop()

	// Tracing is enabled by -trace; a live -listen endpoint also gets the
	// recorder so /trace can dump mid-run (runtime mode).
	var rec *obs.Recorder
	if *traceOut != "" || diag.Server() != nil {
		rec = obs.NewRecorder(obs.RecorderOptions{TrackCapacity: *traceCap})
		diag.Server().SetRecorder(rec)
	}

	if *mode == "sim" {
		err = runSim(stdout, a, cl, k, sim.Options{Seed: *seed, Fault: plan, Recorder: rec}, diag.Server())
	} else {
		cfg := core.Config{Cluster: cl, Policy: k, Deque: dk, Seed: *seed, Fault: plan, Recorder: rec}
		err = runRuntime(stdout, a, cfg, *timeout, diag.Server())
	}
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := cliutil.WriteTraceFile(rec, *traceOut, *traceFormat, 0); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: wrote %s (%s, %d events dropped)\n", *traceOut, *traceFormat, rec.Dropped())
	}
	return diag.Stop()
}

// app is one resolved -app: what each engine needs to run it. Whether it
// is a fork-join or a dataflow app is settled by resolveApp, never inside
// an engine's run path.
type app struct {
	name string
	// reads is the path flag the app reads: -scale or -dag-policy.
	reads string
	// simulate builds the app's graph for cl and simulates it, returning
	// the result and the report lines that describe the graph.
	simulate func(cl topology.Cluster, k sched.Kind, opt sim.Options) (*sim.Result, string, error)
	// reference returns the checksum parallel must return.
	reference func() uint64
	// parallel runs the app on rt, returning its checksum and the report
	// lines the run adds.
	parallel func(rt *core.Runtime) (uint64, string, error)
}

// resolveApp resolves -app against the fork-join suite, then the
// dataflow one.
func resolveApp(name string, scale suite.Scale, dagPolicy string, seed int64) (app, error) {
	if a, err := suite.ByName(name, scale, seed); err == nil {
		return forkJoinApp(a), nil
	}
	a, err := linalg.ByName(name, seed)
	if err != nil {
		return app{}, fmt.Errorf("-app %q: valid applications are: %s", name, strings.Join(appNames(), " "))
	}
	pol, err := dag.ParsePolicy(dagPolicy)
	if err != nil {
		return app{}, err
	}
	return dataflowApp(a, pol), nil
}

// forkJoinApp runs a through sim.Run and its own Parallel, checked
// against apps.ParallelReference.
func forkJoinApp(a apps.App) app {
	return app{
		name:  a.Name(),
		reads: "scale",
		simulate: func(cl topology.Cluster, k sched.Kind, opt sim.Options) (*sim.Result, string, error) {
			g, err := a.Trace(cl.Places)
			if err != nil {
				return nil, "", err
			}
			res, err := sim.Run(g, cl, k, opt)
			return res, fmt.Sprintf("tasks\t%d (%.0f%% locality-flexible)\nmean flexible granularity\t%.3f ms\n",
				g.NumTasks(), 100*g.FlexibleFraction(), float64(apps.MeanFlexibleCostNS(g))/1e6), err
		},
		reference: func() uint64 { return apps.ParallelReference(a) },
		parallel: func(rt *core.Runtime) (uint64, string, error) {
			got, err := a.Parallel(rt)
			return got, "", err
		},
	}
}

// dataflowApp runs a's graph under placement pol through sim.RunDAG and
// dag.Execute, checked bit-exactly against its Sequential.
func dataflowApp(a linalg.App, pol dag.Policy) app {
	return app{
		name:  a.Name(),
		reads: "dag-policy",
		simulate: func(cl topology.Cluster, k sched.Kind, opt sim.Options) (*sim.Result, string, error) {
			g, err := a.Graph(cl.Places)
			if err != nil {
				return nil, "", err
			}
			res, err := sim.RunDAG(g, cl, k, pol, opt)
			if err != nil {
				return nil, "", err
			}
			var inputBytes int64
			for i := range g.Tasks {
				inputBytes += int64(g.InputBytes(i))
			}
			return res, fmt.Sprintf("tasks\t%d in %d blocks (%d input bytes total)\n", g.NumTasks(), len(g.BlockBytes), inputBytes) +
				dataflowLine(pol, res.DAG), nil
		},
		reference: a.Sequential,
		parallel: func(rt *core.Runtime) (uint64, string, error) {
			got, stats, err := a.Parallel(rt, pol)
			return got, dataflowLine(pol, stats), err
		},
	}
}

// dataflowLine reports a DAG run's placement and its release and
// input-residency account.
func dataflowLine(pol dag.Policy, s dag.ExecStats) string {
	return fmt.Sprintf("dataflow\t%s placement: %d released, %d resident hits, %d misses (%.1f%% hit), %d bytes fetched\n",
		pol, s.Released, s.ResidentHits, s.ResidentMisses, s.ResidencyRate(), s.FetchedBytes)
}

// refuseUnread fails on a path flag, explicitly set, that a's run in mode
// does not read, naming the path flags it does read.
func refuseUnread(fs *flag.FlagSet, a app, mode string) error {
	reads := []string{a.reads}
	if mode == "runtime" {
		reads = append(reads, "deque", "timeout")
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(pathFlags, f.Name) && !slices.Contains(reads, f.Name) {
			err = fmt.Errorf("-%s does not apply to %s under -mode %s, which reads -%s beside the common flags",
				f.Name, a.name, mode, strings.Join(reads, ", -"))
		}
	})
	return err
}

func runSim(stdout io.Writer, a app, cl topology.Cluster, k sched.Kind, opt sim.Options, srv *obs.Server) error {
	start := time.Now()
	res, header, err := a.simulate(cl, k, opt)
	if err != nil {
		return err
	}
	hostTime := time.Since(start)
	// The sim is a single synchronous call: counters only exist once it
	// returns, so a live endpoint serves the end-of-run snapshot.
	srv.SetMetricsSource(func() metrics.Snapshot { return res.Counters })
	srv.SetUtilizationSource(func() []float64 { return res.Utilization })

	fmt.Fprintf(stdout, "%s under %s on %s (simulated)\n\n", a.name, k, cl)
	w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprint(w, header)
	fmt.Fprintf(w, "sequential (virtual)\t%.2f ms\n", float64(res.SequentialNS)/1e6)
	fmt.Fprintf(w, "makespan (virtual)\t%.2f ms\n", float64(res.MakespanNS)/1e6)
	fmt.Fprintf(w, "speedup\t%.2f on %d workers\n", res.Speedup(), cl.Workers())
	printRun(w, res.Counters, res.Utilization)
	fmt.Fprintf(w, "host time\t%v (graph and simulation)\n", hostTime.Round(time.Millisecond))
	return w.Flush()
}

func runRuntime(stdout io.Writer, a app, cfg core.Config, timeout time.Duration, srv *obs.Server) error {
	fmt.Fprintf(stdout, "%s under %s on %s (real runtime; place count bounded by this host)\n\n", a.name, cfg.Policy, cfg.Cluster)
	// The reference is computed before New: a timed fault plan runs on the
	// runtime's clock from New on.
	want := a.reference()
	rt, err := core.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	srv.SetMetricsSource(rt.Metrics)
	srv.SetUtilizationSource(rt.Utilization)
	// -timeout: shut the runtime down when the deadline passes. The app's
	// in-flight RunContext observes the stop signal and unblocks with the
	// typed ErrShutdown instead of waiting on a finish the exiting workers
	// will never complete.
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() { _ = rt.ShutdownContext(context.Background()) })
		defer timer.Stop()
	}
	start := time.Now()
	got, extra, err := a.parallel(rt)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, core.ErrShutdown) && timeout > 0 {
			return fmt.Errorf("run exceeded -timeout %v: %w", timeout, err)
		}
		return err
	}
	w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	status := "OK (matches reference)"
	if got != want {
		status = fmt.Sprintf("MISMATCH: parallel %x vs reference %x", got, want)
	}
	fmt.Fprintf(w, "result checksum\t%x\t%s\n", got, status)
	fmt.Fprintf(w, "wall time\t%v\n", elapsed.Round(time.Millisecond))
	fmt.Fprint(w, extra)
	printRun(w, rt.Metrics(), rt.Utilization())
	if err := w.Flush(); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("checksum mismatch")
	}
	return nil
}

// parsePlaces parses a comma-separated place list such as "0,1".
func parsePlaces(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var p int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &p); err != nil || p < 0 {
			return nil, fmt.Errorf("bad place %q", part)
		}
		out = append(out, p)
	}
	return out, nil
}

// parseLink parses a directed link spec "from:to" where * matches any
// place (fault.Link wildcard -1).
func parseLink(s string) (from, to int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want from:to")
	}
	side := func(v string) (int, error) {
		v = strings.TrimSpace(v)
		if v == "*" {
			return -1, nil
		}
		var p int
		if _, err := fmt.Sscanf(v, "%d", &p); err != nil || p < 0 {
			return 0, fmt.Errorf("bad place %q", v)
		}
		return p, nil
	}
	if from, err = side(parts[0]); err != nil {
		return 0, 0, err
	}
	if to, err = side(parts[1]); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

// appNames lists every -app spelling, from the suites' registries.
func appNames() []string {
	return slices.Concat(suite.Names(), []string{"uts"}, linalg.Names())
}

// policyNames lists the canonical -policy spellings, derived from the
// scheduler registry so a new policy shows up here without CLI edits.
func policyNames() []string {
	kinds := sched.Kinds()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = strings.ToLower(k.String())
	}
	return out
}

// printRun prints the report block both engines share: the run's counters
// and its per-place utilization.
func printRun(w io.Writer, s metrics.Snapshot, util []float64) {
	fmt.Fprintf(w, "tasks executed\t%d\n", s.TasksExecuted)
	fmt.Fprintf(w, "steals\tlocal %d, remote %d, failed sweeps %d\n",
		s.LocalSteals, s.RemoteSteals, s.FailedSteals)
	fmt.Fprintf(w, "steals-to-task ratio\t%.2e\n", s.StealsToTaskRatio())
	fmt.Fprintf(w, "messages\t%d (%d bytes)\n", s.Messages, s.BytesTransferred)
	fmt.Fprintf(w, "migrated tasks\t%d (remote refs %d)\n", s.TasksMigrated, s.RemoteDataAccess)
	if s.DuplicateTakes > 0 {
		fmt.Fprintf(w, "duplicate takes\t%d deduped\n", s.DuplicateTakes)
	}
	if s.CacheRefs > 0 {
		fmt.Fprintf(w, "modelled L1d miss rate\t%.1f%%\n", s.CacheMissRate())
	}
	if s.PlacesLost > 0 || s.StealTimeouts > 0 || s.DroppedMessages > 0 {
		fmt.Fprintf(w, "faults\t%d places lost, %d tasks re-executed, %d steal timeouts, %d retries, %d dropped messages\n",
			s.PlacesLost, s.TasksReExecuted, s.StealTimeouts, s.Retries, s.DroppedMessages)
	}
	if s.MembershipJoins > 0 || s.MembershipDrains > 0 || s.MembershipRejoins > 0 ||
		s.TasksOffloaded > 0 || s.DuplicatedMessages > 0 {
		fmt.Fprintf(w, "membership\t%d joins, %d drains, %d rejoins, %d tasks offloaded, %d duplicated messages\n",
			s.MembershipJoins, s.MembershipDrains, s.MembershipRejoins,
			s.TasksOffloaded, s.DuplicatedMessages)
	}
	fmt.Fprintf(w, "utilization\t%s\n", metrics.FormatSeries(util))
	sp := metrics.Summarize(util)
	fmt.Fprintf(w, "utilization spread\tmin %.1f%% max %.1f%% disparity %.1f%%\n", sp.Min, sp.Max, sp.Disparity)
}
