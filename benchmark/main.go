// Command benchmark measures the real system end to end and layer by
// layer: six workloads over the goroutine runtime, the dataflow executor,
// the simulator and the job service. BENCHMARK.json at the repository root
// is its contract; README.md in this directory is its manual.
//
//	go run ./benchmark                                   # all six workloads, both ways
//	go run ./benchmark -workload rt-fine -seconds 10     # one workload, tracing off
//	go run ./benchmark -workload rt-fine -trace 1        # per-layer numbers from a traced run
//	go run ./benchmark -compare a/result.json b/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
	spec     string
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "one of rt-fine, rt-local, rt-coarse, dag-linalg, sim-paper, svc-mesh, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input, core.Config.Seed and sim.Options.Seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of each measured window")
	fs.IntVar(&o.trace, "trace", 0, "with one workload: 0 measures the end-to-end metrics with tracing off, 1 the per-layer metrics from a traced run")
	fs.BoolVar(&o.quick, "quick", false, "smoke sizing: tiny inputs and probes, one set-up (numbers are not comparable)")
	fs.StringVar(&o.out, "out", ".bench_out", "directory for result.json and the span dump; empty writes nothing")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark contract")
	compare := fs.Bool("compare", false, "compare two runs, or two sets of runs by their medians: -compare a b, each a result.json or a directory of them; exit 1 past a bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(o.spec)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files or directories")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), sp, stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	res, err := measure(o, sp, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.correct() {
		fmt.Fprintln(stderr, "benchmark: an output check failed; see failed counts above")
		return 1
	}
	return 0
}

// environment is recorded in the result file so two files can be told
// apart before they are compared.
type environment struct {
	P              int     `json:"p"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Revision       string  `json:"vcs_revision,omitempty"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Quick          bool    `json:"quick,omitempty"`
	Oversubscribed bool    `json:"oversubscribed,omitempty"`
}

// workloadResult holds whichever of the two runs were made.
type workloadResult struct {
	EndToEnd *run `json:"end_to_end,omitempty"`
	PerLayer *run `json:"per_layer,omitempty"`
	// SetupS and PassMS are every set-up and every pass of the end-to-end
	// run in order, kept so a disputed figure can be re-examined (and
	// another statistic tried) without a re-run.
	SetupS []float64 `json:"setup_s_samples,omitempty"`
	PassMS []float64 `json:"pass_ms_samples,omitempty"`
}

// resultFile is what -out receives and -compare reads.
type resultFile struct {
	Env       environment               `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func (f *resultFile) correct() bool {
	for _, w := range f.Workloads {
		for _, r := range []*run{w.EndToEnd, w.PerLayer} {
			if r != nil && !r.Correct {
				return false
			}
		}
	}
	return true
}

func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

// sliceWindow is how long the traced run spends on each workload other
// than the selected one: enough passes for a median, so that every traced
// run carries the whole per-layer ledger.
const sliceWindow = 500 * time.Millisecond

// traceWindow caps the traced window when all workloads run.
const traceWindow = 5 * time.Second

func measure(o options, sp *spec, stdout io.Writer) (*resultFile, error) {
	p := runtime.NumCPU()
	runtime.GOMAXPROCS(p)
	e := env{p: p, seed: o.seed, quick: o.quick}
	window := time.Duration(o.seconds * float64(time.Second))
	res := &resultFile{
		Env: environment{P: p, GOMAXPROCS: p, GoVersion: runtime.Version(), Revision: vcsRevision(),
			Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
			Oversubscribed: twoByK(p).oversubscribed || oneByP(p).oversubscribed},
		Workloads: map[string]workloadResult{},
	}
	fmt.Fprintf(stdout, "# P=%d GOMAXPROCS=%d %s seed=%d seconds=%g shapes 2xk=%v 1xP=%v\n",
		p, p, runtime.Version(), o.seed, o.seconds, twoByK(p), oneByP(p))
	if res.Env.Oversubscribed {
		fmt.Fprintf(stdout, "# WARNING: %d CPU(s): shapes run more worker goroutines than CPUs; these numbers also measure the Go scheduler\n", p)
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v, or all)", o.workload, workloadNames)
	}

	if o.workload == "all" || o.trace == 0 {
		for _, name := range names {
			var r endToEnd
			// The watchdog allows the set-ups their time on top of the window.
			err := guarded(name, 3*window+90*time.Second, func() (err error) {
				r, err = measureEndToEnd(name, e, window)
				return err
			})
			if err != nil {
				return nil, err
			}
			if r.Metrics, err = pick(sp.EndToEnd, r.Metrics); err != nil {
				return nil, err
			}
			res.Workloads[name] = workloadResult{EndToEnd: &r.run, SetupS: r.setupS, PassMS: r.passMS}
			printRun(stdout, name, unitOfWork[name], r.run)
		}
	}

	var spans []span
	if o.workload == "all" || o.trace == 1 {
		windows := map[string]time.Duration{}
		for _, name := range workloadNames {
			switch {
			case o.workload == "all":
				windows[name] = min(window, traceWindow)
			case name == o.workload:
				windows[name] = window
			default:
				windows[name] = min(window, sliceWindow)
			}
		}
		led, err := runLedger(e, windows)
		if err != nil {
			return nil, err
		}
		spans = led.spans
		for _, name := range names {
			r, err := led.perLayer(name, sp.PerLayer)
			if err != nil {
				return nil, err
			}
			wr := res.Workloads[name]
			wr.PerLayer = &r
			res.Workloads[name] = wr
			printRun(stdout, name, "traced", r)
		}
	}

	if o.out != "" {
		if err := writeResults(o.out, res, spans); err != nil {
			return nil, err
		}
	}
	// One workload, one way: the last line is the run as one JSON object.
	if o.workload != "all" {
		wr := res.Workloads[o.workload]
		r := wr.EndToEnd
		if o.trace == 1 {
			r = wr.PerLayer
		}
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return res, nil
}

// printRun lists every metric of a run by name and unit.
func printRun(w io.Writer, workload, note string, r run) {
	fmt.Fprintf(w, "%s (%s): attempted %d, failed %d\n", workload, note, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %-40s %14.6g %s\n", workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// writeResults writes result.json and, after a traced run, spans.jsonl.
func writeResults(dir string, res *resultFile, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return writeSpans(filepath.Join(dir, "spans.jsonl"), spans)
}
