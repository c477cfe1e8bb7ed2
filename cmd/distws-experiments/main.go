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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"distws/internal/apps/suite"
	"distws/internal/cliutil"
	"distws/internal/expt"
)

// experiments is every exhibit in presentation order; -only selects from
// it by name, and its help and its refusal list these names.
var experiments = []struct {
	name string
	run  func(r *expt.Runner) (string, error)
}{
	{"fig3", func(r *expt.Runner) (string, error) { rows, err := r.Fig3(); return expt.RenderFig3(rows), err }},
	{"fig4", func(r *expt.Runner) (string, error) { rows, err := r.Fig4(); return expt.RenderFig4(rows), err }},
	{"fig5", func(r *expt.Runner) (string, error) { rows, err := r.Fig5(nil); return expt.RenderFig5(rows), err }},
	{"table1", func(r *expt.Runner) (string, error) { rows, err := r.Table1(); return expt.RenderTable1(rows), err }},
	{"table2", func(r *expt.Runner) (string, error) { rows, err := r.Table2(); return expt.RenderTable2(rows), err }},
	{"table3", func(r *expt.Runner) (string, error) { rows, err := r.Table3(); return expt.RenderTable3(rows), err }},
	{"fig6", func(r *expt.Runner) (string, error) { rows, err := r.Fig6(); return expt.RenderFig6(rows), err }},
	{"fig7", func(r *expt.Runner) (string, error) { rows, err := r.Fig7(); return expt.RenderFig7(rows), err }},
	{"granularity", func(r *expt.Runner) (string, error) {
		rows, err := r.GranularityStudy()
		return expt.RenderGranularity(rows), err
	}},
	{"uts", func(r *expt.Runner) (string, error) { rows, err := r.UTSStudy(); return expt.RenderUTS(rows), err }},
	{"contention", func(r *expt.Runner) (string, error) {
		rows, err := r.ContentionStudy()
		return expt.RenderContention(rows), err
	}},
	{"dag", func(r *expt.Runner) (string, error) { rows, err := r.DAGStudy(); return expt.RenderDAG(rows), err }},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distws-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("distws-experiments", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "workload and scheduler seed")
		scale   = fs.Int("scale", 1, "workload scale multiplier")
		only    = fs.String("only", "", "comma-separated experiments to run: "+strings.Join(names, ", "))
		workers = fs.Int("workers", 0, "simulation cells run concurrently (0 = GOMAXPROCS, 1 = sequential)")
	)
	diag := cliutil.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if cliutil.VersionRequested() {
		cliutil.PrintVersion(stdout, "distws-experiments")
		return nil
	}

	if err := diag.Start(); err != nil {
		return err
	}
	defer diag.Stop()

	r := expt.New(suite.Scale(*scale), *seed)
	r.Workers = *workers

	// Every -only name resolves before any experiment runs.
	selected := make(map[string]bool)
	if *only != "" {
		for _, want := range strings.Split(*only, ",") {
			want = strings.ToLower(strings.TrimSpace(want))
			if !slices.Contains(names, want) {
				return fmt.Errorf("-only: unknown experiment %q (have %s)", want, strings.Join(names, ", "))
			}
			selected[want] = true
		}
	}

	start := time.Now()
	ran := 0
	for _, e := range experiments {
		if *only != "" && !selected[e.name] {
			continue
		}
		out, err := e.run(r)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(stdout, out)
		ran++
	}
	fmt.Fprintf(stdout, "regenerated %d experiment(s) in %v (virtual cluster %s, scale %dx, seed %d)\n",
		ran, time.Since(start).Round(time.Millisecond), r.Cluster, *scale, *seed)
	return diag.Stop()
}
