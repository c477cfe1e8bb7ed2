package expt

import (
	"strings"
	"testing"

	"distws/internal/apps/suite"
	"distws/internal/deque"
	"distws/internal/sched"
	"distws/internal/sim"
)

// runner is shared across tests: traces are cached, so the whole file
// costs roughly one evaluation sweep.
var testRunner = New(suite.Small, 1)

func TestFig3StealsRatio(t *testing.T) {
	rows, err := testRunner.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 apps", len(rows))
	}
	for _, row := range rows {
		if row.Steals == 0 {
			t.Errorf("%s: no steals at 128 workers", row.App)
		}
		// The paper reports ratios of 1e-4..1e-5 on workloads 100-1000x
		// larger than our defaults; the scale-invariant property is that
		// steals stay bounded by ~one per task even with 128 hungry
		// workers and that absolute steal counts are significant.
		if row.Ratio >= 1.2 {
			t.Errorf("%s: steals-to-task ratio %.3f too high", row.App, row.Ratio)
		}
	}
	if RenderFig3(rows) == "" {
		t.Fatal("empty render")
	}
}

func TestFig5DistWSWinsBeyondOneNode(t *testing.T) {
	rows, err := testRunner.Fig5([]int{1, 2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		last := row.Cells[len(row.Cells)-1]
		// The paper's headline: at scale DistWS does not lose, and on the
		// irregular apps it wins clearly.
		if last.DistWS < last.X10WS*0.99 {
			t.Errorf("%s: DistWS %.2f below X10WS %.2f at 128 workers",
				row.App, last.DistWS, last.X10WS)
		}
		// Single node: DistWS may trail slightly (bookkeeping overhead)
		// but not collapse.
		first := row.Cells[0]
		if first.Places != 1 {
			t.Fatalf("first cell should be 1 place")
		}
		if first.DistWS < first.X10WS*0.85 {
			t.Errorf("%s: single-node DistWS %.2f collapsed vs X10WS %.2f",
				row.App, first.DistWS, first.X10WS)
		}
		// The paper shows a slight single-node DistWS slowdown; our
		// virtual-time model shows parity within a few percent (see
		// EXPERIMENTS.md on single-node overheads).
		if first.DistWS > first.X10WS*1.06 {
			t.Errorf("%s: single-node DistWS %.2f should not beat X10WS %.2f (no cross-node steals exist)",
				row.App, first.DistWS, first.X10WS)
		}
	}
	// Overall: the irregular coarse-grained apps show a clear gain at scale.
	gains := map[string]float64{}
	for _, row := range rows {
		gains[row.App] = row.BestGainPct
	}
	for _, app := range []string{"dmg", "dmr", "nbody"} {
		if gains[app] < 5 {
			t.Errorf("%s: best DistWS gain %.1f%%, want a clear improvement (paper: %v%%)",
				app, gains[app], PaperBestGainPct[app])
		}
	}
	t.Logf("\n%s", RenderFig5(rows))
}

func TestTable1GranularitiesMatchPaper(t *testing.T) {
	rows, err := testRunner.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		lo, hi := row.PaperMS*0.8, row.PaperMS*1.2
		if row.MeasuredMS < lo || row.MeasuredMS > hi {
			t.Errorf("%s: granularity %.3f ms outside ±20%% of paper %.3f ms",
				row.App, row.MeasuredMS, row.PaperMS)
		}
	}
}

func TestTable2MissRateOrdering(t *testing.T) {
	rows, err := testRunner.Table2()
	if err != nil {
		t.Fatal(err)
	}
	var sumX10, sumNS, sumDWS float64
	for _, row := range rows {
		sumX10 += row.X10WS
		sumNS += row.DistWSNS
		sumDWS += row.DistWS
		// Per app: any distributed stealing raises misses over X10WS.
		if row.DistWS < row.X10WS*0.98 {
			t.Errorf("%s: DistWS miss rate %.2f below X10WS %.2f (migration cannot reduce misses)",
				row.App, row.DistWS, row.X10WS)
		}
		if row.DistWSNS < row.X10WS*0.98 {
			t.Errorf("%s: DistWS-NS miss rate %.2f below X10WS %.2f",
				row.App, row.DistWSNS, row.X10WS)
		}
	}
	// Across the suite, non-selective stealing pollutes caches more than
	// selective stealing (Table II's ordering; per-app exceptions occur at
	// reduced scale when DistWS steals far more chunks than DistWS-NS —
	// see EXPERIMENTS.md).
	if sumNS <= sumDWS {
		t.Errorf("aggregate miss rates: DistWS-NS %.1f not above DistWS %.1f", sumNS, sumDWS)
	}
	if sumDWS <= sumX10 {
		t.Errorf("aggregate miss rates: DistWS %.1f not above X10WS %.1f", sumDWS, sumX10)
	}
	t.Logf("\n%s", RenderTable2(rows))
}

func TestTable3MessageOrdering(t *testing.T) {
	rows, err := testRunner.Table3()
	if err != nil {
		t.Fatal(err)
	}
	var sumNS, sumDWS int64
	for _, row := range rows {
		sumNS += row.DistWSNS
		sumDWS += row.DistWS
		// Per app: distributed stealing costs messages over X10WS.
		if row.X10WS >= row.DistWS || row.X10WS >= row.DistWSNS {
			t.Errorf("%s: X10WS messages %d should be the smallest (DistWS=%d, NS=%d)",
				row.App, row.X10WS, row.DistWS, row.DistWSNS)
		}
	}
	// Across the suite, non-selective stealing transmits more than
	// selective stealing (Table III's ordering).
	if sumNS <= sumDWS {
		t.Errorf("aggregate messages: DistWS-NS %d not above DistWS %d", sumNS, sumDWS)
	}
	t.Logf("\n%s", RenderTable3(rows))
}

func TestFig6PolicyRanking(t *testing.T) {
	rows, err := testRunner.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	var nsBetter int
	for _, row := range rows {
		// DistWS is at worst at par with DistWS-NS per app (small
		// scheduling variance allowed) and clearly ahead overall.
		if row.DistWS < row.DistWSNS*0.93 {
			t.Errorf("%s: DistWS %.2f below DistWS-NS %.2f", row.App, row.DistWS, row.DistWSNS)
		}
		if row.DistWS >= row.DistWSNS {
			nsBetter++
		}
		if row.DistWS < row.X10WS*0.99 {
			t.Errorf("%s: DistWS %.2f below X10WS %.2f at 128 workers", row.App, row.DistWS, row.X10WS)
		}
	}
	if nsBetter < 4 {
		t.Errorf("DistWS should match or beat DistWS-NS on most apps; did so on %d of %d", nsBetter, len(rows))
	}
	t.Logf("\n%s", RenderFig6(rows))
}

func TestFig7UtilizationShape(t *testing.T) {
	rows, err := testRunner.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]map[sched.Kind]Fig7Row{}
	for _, row := range rows {
		if byApp[row.App] == nil {
			byApp[row.App] = map[sched.Kind]Fig7Row{}
		}
		byApp[row.App][row.Policy] = row
	}
	var x10Disp, dwsDisp, x10Mean, dwsMean float64
	for app, m := range byApp {
		x10, dws := m[sched.X10WS], m[sched.DistWS]
		x10Disp += x10.Spread.Disparity
		dwsDisp += dws.Spread.Disparity
		x10Mean += x10.Spread.Mean
		dwsMean += dws.Spread.Mean
		_ = app
	}
	n := float64(len(byApp))
	// DistWS must have materially lower utilization disparity and higher
	// mean utilization than X10WS (paper: ~35% disparity -> ~13%).
	if dwsDisp/n >= x10Disp/n {
		t.Errorf("mean disparity: DistWS %.1f%% not below X10WS %.1f%%", dwsDisp/n, x10Disp/n)
	}
	if dwsMean/n <= x10Mean/n {
		t.Errorf("mean utilization: DistWS %.1f%% not above X10WS %.1f%%", dwsMean/n, x10Mean/n)
	}
	t.Logf("\n%s", RenderFig7(rows))
}

func TestGranularityStudyFineTasksDoNotProfit(t *testing.T) {
	rows, err := testRunner.GranularityStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 micro apps", len(rows))
	}
	for _, row := range rows {
		// Paper §VIII-Q2: DistWS performs worse on sub-millisecond tasks.
		// Allow parity, reject meaningful gains.
		if row.GainPct > 5 {
			t.Errorf("%s (%.3f ms): DistWS gained %.1f%% — fine tasks should not profit",
				row.App, row.GranMS, row.GainPct)
		}
	}
	t.Logf("\n%s", RenderGranularity(rows))
}

func TestUTSStudyOrdering(t *testing.T) {
	rows, err := testRunner.UTSStudy()
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[sched.Kind]UTSRow{}
	for _, row := range rows {
		byPolicy[row.Policy] = row
	}
	rnd := byPolicy[sched.RandomWS]
	dws := byPolicy[sched.DistWS]
	// Paper §X: DistWS beats random stealing (~9% at 128 workers); all
	// UTS tasks are flexible so DistWS adds no overhead.
	if dws.Speedup < rnd.Speedup*0.98 {
		t.Errorf("DistWS speedup %.2f below RandomWS %.2f on UTS", dws.Speedup, rnd.Speedup)
	}
	t.Logf("\n%s", RenderUTS(rows))
}

// TestContentionStudyRelaxedWins pins the PR's acceptance metric: at 512
// simulated workers the relaxed queue with steal-half remote takes must
// sustain at least twice the mutex deque's steal throughput, and the
// advantage must not shrink as the cluster grows. Deterministic: the
// study runs on seeded virtual time.
func TestContentionStudyRelaxedWins(t *testing.T) {
	rows, err := testRunner.ContentionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ContentionWorkerCounts) {
		t.Fatalf("rows = %d, want %d", len(rows), len(ContentionWorkerCounts))
	}
	for _, row := range rows {
		mutex := row.Cell(deque.KindMutex)
		chaselev := row.Cell(deque.KindChaseLev)
		relaxed := row.Cell(deque.KindRelaxed)
		if relaxed.StealThroughput <= mutex.StealThroughput {
			t.Errorf("%d workers: relaxed throughput %.0f not above mutex %.0f",
				row.Workers, relaxed.StealThroughput, mutex.StealThroughput)
		}
		// Chase-Lev removes the lock but steals one task per CAS, so its
		// win shows up as a shorter makespan, not a higher migration rate.
		if chaselev.MakespanMS >= mutex.MakespanMS {
			t.Errorf("%d workers: chaselev makespan %.2fms not below mutex %.2fms",
				row.Workers, chaselev.MakespanMS, mutex.MakespanMS)
		}
		if relaxed.RemoteSteals == 0 {
			t.Errorf("%d workers: relaxed recorded no remote steals", row.Workers)
		}
		if mutex.DuplicateTakes != 0 || chaselev.DuplicateTakes != 0 {
			t.Errorf("%d workers: only relaxed may record duplicate takes", row.Workers)
		}
	}
	var at512 ContentionRow
	for _, row := range rows {
		if row.Workers == 512 {
			at512 = row
		}
	}
	if at512.Workers != 512 {
		t.Fatal("study must include the 512-worker point")
	}
	if at512.RelaxedOverMutex < 2 {
		t.Errorf("512 workers: relaxed/mutex steal throughput %.2fx, want >= 2x",
			at512.RelaxedOverMutex)
	}
	t.Logf("\n%s", RenderContention(rows))
}

func TestRendersIncludePaperAnchors(t *testing.T) {
	rows, err := testRunner.Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable1(rows)
	for _, want := range []string{"Quicksort", "DMG", "899", "Paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I render missing %q:\n%s", want, out)
		}
	}
}

func TestFig4ReportsBothTimeBases(t *testing.T) {
	rows, err := testRunner.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	for _, row := range rows {
		if row.VirtualMS <= 0 {
			t.Errorf("%s: virtual sequential time %.2f, want > 0", row.App, row.VirtualMS)
		}
		if row.WallMS <= 0 {
			t.Errorf("%s: wall sequential time %.2f, want > 0", row.App, row.WallMS)
		}
	}
	out := RenderFig4(rows)
	if !strings.Contains(out, "Virtual") || !strings.Contains(out, "wall") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

func TestTraceCacheReturnsSameGraph(t *testing.T) {
	app := testRunner.Apps[0]
	a, err := testRunner.Trace(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testRunner.Trace(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("trace cache returned distinct graphs")
	}
	c, err := testRunner.Trace(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatalf("different place counts must not share a cache entry")
	}
}

// TestStealRatioFallsWithScale checks the scale-invariance claim of
// EXPERIMENTS.md: the paper's tiny steals-to-task ratios (1e-4..1e-5)
// come from workload size, so growing the workload must shrink the
// measured ratio at fixed cluster size.
func TestStealRatioFallsWithScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep is slow")
	}
	ratioAt := func(scale suite.Scale) float64 {
		app, err := suite.ByName("quicksort", scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, err := app.Trace(testRunner.Cluster.Places)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(g, testRunner.Cluster, sched.DistWS, sim.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.StealsToTaskRatio()
	}
	small := ratioAt(suite.Small)
	medium := ratioAt(suite.Medium)
	if medium >= small {
		t.Fatalf("steals-to-task ratio should fall with scale: small %.3f vs medium %.3f",
			small, medium)
	}
}
