// Command distws-run executes one benchmark application under a chosen
// scheduling policy, either on the real goroutine runtime (verifying the
// result against the sequential reference) or on the virtual 128-worker
// cluster simulator, and prints the run's scheduler metrics.
//
// Examples:
//
//	distws-run -app dmg -policy distws -mode sim -places 16 -workers 8
//	distws-run -app quicksort -policy x10ws -mode runtime -places 4 -workers 2
//	distws-run -app uts -mode sim -places 4 -workers 2 -crash-place 1 -crash-at 2ms -drop 0.01
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
	"os"
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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distws-run:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		appName = flag.String("app", "dmg", "application (quicksort, turingring, kmeans, agglom, dmg, dmr, nbody, uts, a micro app, or a dataflow app: cholesky, lu, pipeline)")
		policy  = flag.String("policy", "distws", "scheduler: x10ws, distws, distws-ns, random, lifeline, adaptive")
		dagPol  = flag.String("dag-policy", "blind", "dataflow placement for dag apps: "+strings.Join(dag.PolicyNames(), ", "))
		dq      = flag.String("deque", "mutex", "worker-queue kind of -mode runtime: "+strings.Join(deque.KindNames(), ", "))
		mode    = flag.String("mode", "sim", "sim (virtual cluster) or runtime (real goroutine runtime)")
		places  = flag.Int("places", 16, "number of places (nodes)")
		workers = flag.Int("workers", 8, "workers per place")
		seed    = flag.Int64("seed", 1, "workload and scheduler seed")
		scale   = flag.Int("scale", 1, "workload scale multiplier")
		timeout = flag.Duration("timeout", 0, "abort a runtime-mode run after this long (0 = no limit)")
		list    = flag.Bool("list", false, "list available applications and policies and exit")

		crashPlace = flag.Int("crash-place", -1, "place to crash mid-run (-1 = none)")
		crashAt    = flag.Duration("crash-at", 0, "virtual time of the crash (sim mode)")
		crashAfter = flag.Int64("crash-after-tasks", 0, "crash after this many tasks at the place (runtime mode)")
		dropProb   = flag.Float64("drop", 0, "steal message drop probability [0,1]")
		dupProb    = flag.Float64("dup", 0, "steal reply duplication probability [0,1]")
		faultSeed  = flag.Int64("fault-seed", 1, "seed of the fault injector")

		partGroup = flag.String("partition", "", "comma-separated places forming one side of a network cut (e.g. 0,1)")
		partAt    = flag.Duration("partition-at", time.Millisecond, "when the partition takes effect")
		partHeal  = flag.Duration("partition-heal", 0, "when the partition heals (0 = never)")
		grayLink  = flag.String("gray", "", "gray-degraded link as from:to, * matching any place (e.g. 0:2, *:1)")
		grayExtra = flag.Duration("gray-extra", time.Millisecond, "extra one-way latency on the gray link")
		flapPlace = flag.Int("flap-place", -1, "place to flap down/up repeatedly (-1 = none)")
		flapAt    = flag.Duration("flap-at", time.Millisecond, "first flap outage instant")
		flapDown  = flag.Duration("flap-down", time.Millisecond, "length of each flap outage")
		flapUp    = flag.Duration("flap-up", time.Millisecond, "recovered time between flap outages")
		flapCount = flag.Int("flap-cycles", 1, "number of flap outages")
		joinPlace = flag.Int("join-place", -1, "place absent at start that joins mid-run (-1 = none)")
		joinAt    = flag.Duration("join-at", time.Millisecond, "when the absent place joins")
		drainPl   = flag.Int("drain-place", -1, "place to drain gracefully mid-run (-1 = none)")
		drainAt   = flag.Duration("drain-at", time.Millisecond, "when the graceful drain starts")

		traceOut    = flag.String("trace", "", "record scheduling events and write them to `file`")
		traceFormat = flag.String("trace-format", "events", "trace output format: events, chrome, csv, summary")
		traceCap    = flag.Int("trace-cap", 0, "per-worker trace ring capacity in events (0 = default)")
	)
	diag := cliutil.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if cliutil.VersionRequested() {
		cliutil.PrintVersion(os.Stdout, "distws-run")
		return nil
	}

	if *list {
		fmt.Println("paper suite:", strings.Join(suite.Names(), " "))
		fmt.Println("micro suite:", strings.Join(microNames(), " "))
		fmt.Println("dataflow suite:", strings.Join(linalg.Names(), " "))
		fmt.Println("uts")
		fmt.Println("policies:", strings.Join(policyNames(), " "))
		fmt.Println("dag policies:", strings.Join(dag.PolicyNames(), " "))
		return nil
	}

	// Validate every registry-backed flag before any setup work so a typo
	// fails immediately with the full set of valid spellings.
	k, err := sched.Parse(*policy)
	if err != nil {
		return fmt.Errorf("-policy %q: valid policies are: %s", *policy, strings.Join(policyNames(), " "))
	}
	dk, err := deque.ParseKind(*dq)
	if err != nil {
		return fmt.Errorf("-deque %q: valid kinds are: %s", *dq, strings.Join(deque.KindNames(), " "))
	}
	pol, err := dag.ParsePolicy(*dagPol)
	if err != nil {
		return err
	}
	var dagApp linalg.App
	app, err := suite.ByName(*appName, suite.Scale(*scale), *seed)
	if err != nil {
		dagApp, err = linalg.ByName(*appName, *seed)
		if err != nil {
			return fmt.Errorf("-app %q: valid applications are: %s uts %s",
				*appName, strings.Join(append(suite.Names(), microNames()...), " "),
				strings.Join(linalg.Names(), " "))
		}
	}
	if *mode != "sim" && *mode != "runtime" {
		return fmt.Errorf("-mode %q: valid modes are: sim runtime", *mode)
	}
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = *places, *workers
	if err := cl.Validate(); err != nil {
		return err
	}

	plan, err := buildPlan(*faultSeed, *dropProb, *dupProb,
		*crashPlace, *crashAt, *crashAfter,
		*partGroup, *partAt, *partHeal,
		*grayLink, *grayExtra,
		*flapPlace, *flapAt, *flapDown, *flapUp, *flapCount,
		*joinPlace, *joinAt, *drainPl, *drainAt)
	if err != nil {
		return err
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

	switch {
	case dagApp != nil && *mode == "sim":
		err = runDAGSim(dagApp, cl, k, pol, *seed, plan, rec, diag.Server())
	case dagApp != nil:
		err = runDAGRuntime(dagApp, cl, k, dk, pol, *seed, *timeout)
	case *mode == "sim":
		err = runSim(app, cl, k, *seed, plan, rec, diag.Server())
	default:
		err = runRuntime(app, cl, k, dk, *seed, *timeout, plan, rec, diag.Server())
	}
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := cliutil.WriteTraceFile(rec, *traceOut, *traceFormat, 0); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s (%s, %d events dropped)\n", *traceOut, *traceFormat, rec.Dropped())
	}
	return diag.Stop()
}

func runSim(app apps.App, cl topology.Cluster, k sched.Kind, seed int64, plan *fault.Plan, rec *obs.Recorder, srv *obs.Server) error {
	start := time.Now()
	g, err := app.Trace(cl.Places)
	if err != nil {
		return err
	}
	genTime := time.Since(start)
	start = time.Now()
	res, err := sim.Run(g, cl, k, sim.Options{Seed: seed, Fault: plan, Recorder: rec})
	if err != nil {
		return err
	}
	simTime := time.Since(start)
	// The sim is a single synchronous call: counters only exist once it
	// returns, so a live endpoint serves the end-of-run snapshot.
	srv.SetMetricsSource(func() metrics.Snapshot { return res.Counters })
	srv.SetUtilizationSource(func() []float64 { return res.Utilization })

	fmt.Printf("%s under %s on %s (simulated)\n\n", app.Name(), k, cl)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "tasks\t%d (%.0f%% locality-flexible)\n", g.NumTasks(), 100*g.FlexibleFraction())
	fmt.Fprintf(w, "mean flexible granularity\t%.3f ms\n", float64(apps.MeanFlexibleCostNS(g))/1e6)
	fmt.Fprintf(w, "sequential (virtual)\t%.2f ms\n", float64(res.SequentialNS)/1e6)
	fmt.Fprintf(w, "makespan (virtual)\t%.2f ms\n", float64(res.MakespanNS)/1e6)
	fmt.Fprintf(w, "speedup\t%.2f on %d workers\n", res.Speedup(), cl.Workers())
	printCounters(w, res.Counters)
	fmt.Fprintf(w, "utilization\t%s\n", metrics.FormatSeries(res.Utilization))
	sp := metrics.Summarize(res.Utilization)
	fmt.Fprintf(w, "utilization spread\tmin %.1f%% max %.1f%% disparity %.1f%%\n", sp.Min, sp.Max, sp.Disparity)
	fmt.Fprintf(w, "host time\ttrace %v, sim %v\n", genTime.Round(time.Millisecond), simTime.Round(time.Millisecond))
	return w.Flush()
}

func runRuntime(app apps.App, cl topology.Cluster, k sched.Kind, dk deque.Kind, seed int64, timeout time.Duration, plan *fault.Plan, rec *obs.Recorder, srv *obs.Server) error {
	fmt.Printf("%s under %s on %s (real runtime; place count bounded by this host)\n\n", app.Name(), k, cl)
	want := apps.ParallelReference(app)
	rt, err := core.New(core.Config{Cluster: cl, Policy: k, Deque: dk, Seed: seed, Fault: plan, Recorder: rec})
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
	got, err := app.Parallel(rt)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, core.ErrShutdown) && timeout > 0 {
			return fmt.Errorf("run exceeded -timeout %v: %w", timeout, err)
		}
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	status := "OK (matches reference)"
	if got != want {
		status = fmt.Sprintf("MISMATCH: parallel %x vs reference %x", got, want)
	}
	fmt.Fprintf(w, "result checksum\t%x\t%s\n", got, status)
	fmt.Fprintf(w, "wall time\t%v\n", elapsed.Round(time.Millisecond))
	printCounters(w, rt.Metrics())
	fmt.Fprintf(w, "utilization\t%s\n", metrics.FormatSeries(rt.Utilization()))
	if err := w.Flush(); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("checksum mismatch")
	}
	return nil
}

// runDAGSim simulates a dataflow app: the graph's tasks are released by
// the dependency tracker and placed by -dag-policy.
func runDAGSim(app linalg.App, cl topology.Cluster, k sched.Kind, pol dag.Policy, seed int64, plan *fault.Plan, rec *obs.Recorder, srv *obs.Server) error {
	start := time.Now()
	g, err := app.Graph(cl.Places)
	if err != nil {
		return err
	}
	genTime := time.Since(start)
	start = time.Now()
	res, err := sim.RunDAG(g, cl, k, pol, sim.Options{Seed: seed, Fault: plan, Recorder: rec})
	if err != nil {
		return err
	}
	simTime := time.Since(start)
	srv.SetMetricsSource(func() metrics.Snapshot { return res.Counters })
	srv.SetUtilizationSource(func() []float64 { return res.Utilization })

	fmt.Printf("%s under %s/%s on %s (simulated dataflow)\n\n", app.Name(), k, pol, cl)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "tasks\t%d in %d blocks (%d input bytes total)\n",
		g.NumTasks(), len(g.BlockBytes), totalInputBytes(g))
	fmt.Fprintf(w, "sequential (virtual)\t%.2f ms\n", float64(res.SequentialNS)/1e6)
	fmt.Fprintf(w, "makespan (virtual)\t%.2f ms\n", float64(res.MakespanNS)/1e6)
	fmt.Fprintf(w, "speedup\t%.2f on %d workers\n", res.Speedup(), cl.Workers())
	printCounters(w, res.Counters)
	fmt.Fprintf(w, "utilization\t%s\n", metrics.FormatSeries(res.Utilization))
	fmt.Fprintf(w, "host time\tgraph %v, sim %v\n", genTime.Round(time.Millisecond), simTime.Round(time.Millisecond))
	return w.Flush()
}

// runDAGRuntime runs a dataflow app on the real goroutine runtime via
// dag.Execute, verifying the bit-exact checksum against the sequential
// reference.
func runDAGRuntime(app linalg.App, cl topology.Cluster, k sched.Kind, dk deque.Kind, pol dag.Policy, seed int64, timeout time.Duration) error {
	fmt.Printf("%s under %s/%s on %s (real runtime dataflow)\n\n", app.Name(), k, pol, cl)
	want := app.Sequential()
	rt, err := core.New(core.Config{Cluster: cl, Policy: k, Deque: dk, Seed: seed})
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() { _ = rt.ShutdownContext(context.Background()) })
		defer timer.Stop()
	}
	start := time.Now()
	got, stats, err := app.Parallel(rt, pol)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, core.ErrShutdown) && timeout > 0 {
			return fmt.Errorf("run exceeded -timeout %v: %w", timeout, err)
		}
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	status := "OK (matches sequential reference bit-exactly)"
	if got != want {
		status = fmt.Sprintf("MISMATCH: parallel %x vs sequential %x", got, want)
	}
	fmt.Fprintf(w, "result checksum\t%x\t%s\n", got, status)
	fmt.Fprintf(w, "wall time\t%v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "dataflow\t%d released, %d resident hits, %d misses (%.1f%% hit), %d bytes fetched\n",
		stats.Released, stats.ResidentHits, stats.ResidentMisses,
		stats.ResidencyRate(), stats.FetchedBytes)
	printCounters(w, rt.Metrics())
	if err := w.Flush(); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("checksum mismatch")
	}
	return nil
}

// totalInputBytes sums every task's input payload for the run header.
func totalInputBytes(g *dag.Graph) int64 {
	var sum int64
	for i := range g.Tasks {
		sum += int64(g.InputBytes(i))
	}
	return sum
}

// buildPlan assembles the declarative fault schedule from the chaos
// flags. Times are virtual nanoseconds in sim mode and wall nanoseconds
// since run start in runtime mode — same flags, same schedule, both
// clocks. Returns nil when no fault flag is set.
func buildPlan(seed int64, drop, dup float64,
	crashPlace int, crashAt time.Duration, crashAfter int64,
	partGroup string, partAt, partHeal time.Duration,
	grayLink string, grayExtra time.Duration,
	flapPlace int, flapAt, flapDown, flapUp time.Duration, flapCycles int,
	joinPlace int, joinAt time.Duration,
	drainPlace int, drainAt time.Duration) (*fault.Plan, error) {
	plan := &fault.Plan{Seed: seed, DropProb: drop, DupProb: dup}
	used := drop > 0 || dup > 0
	if crashPlace >= 0 {
		used = true
		plan.Crashes = []fault.Crash{{
			Place:       crashPlace,
			AtVirtualNS: crashAt.Nanoseconds(),
			AfterTasks:  crashAfter,
		}}
	}
	if partGroup != "" {
		used = true
		group, err := parsePlaces(partGroup)
		if err != nil {
			return nil, fmt.Errorf("-partition %q: %w", partGroup, err)
		}
		plan.Partitions = []fault.Partition{{
			GroupA: group,
			AtNS:   partAt.Nanoseconds(),
			HealNS: partHeal.Nanoseconds(),
		}}
	}
	if grayLink != "" {
		used = true
		from, to, err := parseLink(grayLink)
		if err != nil {
			return nil, fmt.Errorf("-gray %q: %w", grayLink, err)
		}
		plan.Grays = []fault.Gray{{From: from, To: to, ExtraNS: grayExtra.Nanoseconds()}}
	}
	if flapPlace >= 0 {
		used = true
		plan.Flaps = []fault.Flap{{
			Place:  flapPlace,
			AtNS:   flapAt.Nanoseconds(),
			DownNS: flapDown.Nanoseconds(),
			UpNS:   flapUp.Nanoseconds(),
			Cycles: flapCycles,
		}}
	}
	if joinPlace >= 0 {
		used = true
		plan.Joins = []fault.Join{{Place: joinPlace, AtNS: joinAt.Nanoseconds()}}
	}
	if drainPlace >= 0 {
		used = true
		plan.Drains = []fault.Drain{{Place: drainPlace, AtNS: drainAt.Nanoseconds()}}
	}
	if !used {
		return nil, nil
	}
	return plan, nil
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

// microNames lists the micro-suite application names from the registry.
func microNames() []string {
	micro := suite.Micro(1)
	out := make([]string, len(micro))
	for i, a := range micro {
		out[i] = a.Name()
	}
	return out
}

func printCounters(w *tabwriter.Writer, s metrics.Snapshot) {
	fmt.Fprintf(w, "tasks executed\t%d\n", s.TasksExecuted)
	fmt.Fprintf(w, "steals\tlocal %d, remote %d, failed sweeps %d\n",
		s.LocalSteals, s.RemoteSteals, s.FailedSteals)
	fmt.Fprintf(w, "steals-to-task ratio\t%.2e\n", s.StealsToTaskRatio())
	fmt.Fprintf(w, "messages\t%d (%d bytes)\n", s.Messages, s.BytesTransferred)
	fmt.Fprintf(w, "migrated tasks\t%d (remote refs %d)\n", s.TasksMigrated, s.RemoteDataAccess)
	if s.StealRequests > 0 || s.Donations > 0 || s.DuplicateTakes > 0 {
		fmt.Fprintf(w, "receiver-initiated\t%d requests, %d donations, %d duplicate takes deduped\n",
			s.StealRequests, s.Donations, s.DuplicateTakes)
	}
	if s.Reclassifications > 0 {
		fmt.Fprintf(w, "online reclassifications\t%d\n", s.Reclassifications)
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
	if s.DAGTasksReleased > 0 {
		fmt.Fprintf(w, "dag\t%d released, %d resident hits, %d misses (%.1f%% hit), %d bytes fetched\n",
			s.DAGTasksReleased, s.DAGResidentHits, s.DAGResidentMisses,
			s.DAGResidencyRate(), s.DAGFetchedBytes)
	}
}
