// Command distws-experiments regenerates every table and figure of the
// paper's evaluation (§VII–VIII plus the §X UTS study) on the virtual
// 16×8 cluster and prints them next to the paper's reported values.
//
// Independent simulation cells run on a GOMAXPROCS-sized worker pool;
// the emitted tables are byte-identical for a given seed regardless of
// the worker count (use -workers 1 to force sequential execution).
//
//	distws-experiments                 # the full evaluation at default scale
//	distws-experiments -only fig5      # one experiment
//	distws-experiments -scale 4        # 4x larger workloads (slower)
//	distws-experiments -workers 1      # disable the parallel harness
//	distws-experiments -only contention   # the shared-queue contention study
//	distws-experiments -cpuprofile cpu.prof -memprofile mem.prof
//	distws-experiments -listen 127.0.0.1:8080   # live /debug/pprof while it runs
//
// The paper exhibits price no shared-queue synchronization; only the
// contention study does, and it sweeps the deque kinds itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distws/internal/apps/suite"
	"distws/internal/cliutil"
	"distws/internal/expt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distws-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed    = flag.Int64("seed", 1, "workload and scheduler seed")
		scale   = flag.Int("scale", 1, "workload scale multiplier")
		only    = flag.String("only", "", "comma-separated experiments to run: fig3, fig4, fig5, fig6, fig7, table1, table2, table3, granularity, uts, adaptive, contention, dag")
		workers = flag.Int("workers", 0, "simulation cells run concurrently (0 = GOMAXPROCS, 1 = sequential)")
	)
	diag := cliutil.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if cliutil.VersionRequested() {
		cliutil.PrintVersion(os.Stdout, "distws-experiments")
		return nil
	}

	if err := diag.Start(); err != nil {
		return err
	}
	defer diag.Stop()

	r := expt.New(suite.Scale(*scale), *seed)
	r.Workers = *workers
	type ex struct {
		name string
		run  func() (string, error)
	}
	experiments := []ex{
		{"fig3", func() (string, error) { rows, err := r.Fig3(); return expt.RenderFig3(rows), err }},
		{"fig4", func() (string, error) { rows, err := r.Fig4(); return expt.RenderFig4(rows), err }},
		{"fig5", func() (string, error) { rows, err := r.Fig5(nil); return expt.RenderFig5(rows), err }},
		{"table1", func() (string, error) { rows, err := r.Table1(); return expt.RenderTable1(rows), err }},
		{"table2", func() (string, error) { rows, err := r.Table2(); return expt.RenderTable2(rows), err }},
		{"table3", func() (string, error) { rows, err := r.Table3(); return expt.RenderTable3(rows), err }},
		{"fig6", func() (string, error) { rows, err := r.Fig6(); return expt.RenderFig6(rows), err }},
		{"fig7", func() (string, error) { rows, err := r.Fig7(); return expt.RenderFig7(rows), err }},
		{"granularity", func() (string, error) {
			rows, err := r.GranularityStudy()
			return expt.RenderGranularity(rows), err
		}},
		{"uts", func() (string, error) { rows, err := r.UTSStudy(); return expt.RenderUTS(rows), err }},
		{"adaptive", func() (string, error) {
			rows, err := r.AdaptiveStudy()
			return expt.RenderAdaptive(rows), err
		}},
		{"contention", func() (string, error) {
			rows, err := r.ContentionStudy()
			return expt.RenderContention(rows), err
		}},
		{"dag", func() (string, error) { rows, err := r.DAGStudy(); return expt.RenderDAG(rows), err }},
	}

	selected := func(name string) bool {
		if *only == "" {
			return true
		}
		for _, want := range strings.Split(*only, ",") {
			if strings.EqualFold(strings.TrimSpace(want), name) {
				return true
			}
		}
		return false
	}

	start := time.Now()
	ran := 0
	for _, e := range experiments {
		if !selected(e.name) {
			continue
		}
		out, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(out)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	fmt.Printf("regenerated %d experiment(s) in %v (virtual cluster %s, scale %dx, seed %d)\n",
		ran, time.Since(start).Round(time.Millisecond), r.Cluster, *scale, *seed)
	return diag.Stop()
}
