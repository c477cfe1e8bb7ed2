package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// verdict judges one end-to-end metric of run b against run a: the change
// in percent of a, signed so that positive is worse, and whether it is
// past the metric's bound.
func verdict(m specMetric, a, b float64) (worsePct float64, regressed bool) {
	if a == 0 {
		return 0, b != 0 && (m.Better == "lower") == (b > 0)
	}
	change := (b - a) / a
	if m.Better == "higher" {
		change = -change
	}
	return 100 * change, change > m.Bound
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// readSide loads one side of a comparison: a result file, or a directory,
// in which case every result.json below it is one run of a set and each
// end-to-end metric becomes the median over the set (counts are summed).
// One run against one run measures the sandbox's neighbours as much as the
// code; the agreement criterion is about sets.
func readSide(path string) (*resultFile, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return readResult(path)
	}
	var runs []*resultFile
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "result.json" {
			return err
		}
		f, err := readResult(p)
		runs = append(runs, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no result.json below it", path)
	}
	return medianOf(runs), nil
}

// medianOf folds a set of runs into one result: per workload and
// end-to-end metric the median value, attempted and failed summed.
func medianOf(runs []*resultFile) *resultFile {
	out := &resultFile{Env: runs[0].Env, Workloads: map[string]workloadResult{}}
	for _, name := range workloadNames {
		values := map[string][]float64{}
		agg := run{Correct: true, Metrics: rows{}}
		for _, f := range runs {
			r := f.Workloads[name].EndToEnd
			if r == nil {
				continue
			}
			agg.Correct = agg.Correct && r.Correct
			agg.Attempted += r.Attempted
			agg.Failed += r.Failed
			for m, v := range r.Metrics {
				values[m] = append(values[m], v.Value)
				agg.Metrics[m] = v // keeps the unit; the value is replaced below
			}
		}
		if len(values) == 0 {
			continue
		}
		for m, vs := range values {
			agg.Metrics[m] = metric{Value: median(vs), Unit: agg.Metrics[m].Unit}
		}
		out.Workloads[name] = workloadResult{EndToEnd: &agg}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// change with its base, the bound and a verdict; it returns 1 when b is
// past a bound, failed a check a passed, or lacks a workload a has.
func compareFiles(pathA, pathB string, sp *spec, stdout, stderr io.Writer) int {
	var sides [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		var err error
		if sides[i], err = readSide(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return compareResults(sides[0], sides[1], sp, stdout)
}

func compareResults(a, b *resultFile, sp *spec, stdout io.Writer) int {
	if a.Env.P != b.Env.P || a.Env.Seconds != b.Env.Seconds || a.Env.Quick != b.Env.Quick {
		fmt.Fprintf(stdout, "# WARNING: runs differ in shape: P %d vs %d, seconds %g vs %g, quick %v vs %v\n",
			a.Env.P, b.Env.P, a.Env.Seconds, b.Env.Seconds, a.Env.Quick, b.Env.Quick)
	}
	bad := 0
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tchange\tbound\tverdict")
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name].EndToEnd, b.Workloads[name].EndToEnd
		switch {
		case ra == nil:
			continue
		case rb == nil:
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tMISSING in b\n", name)
			bad++
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse, regressed := verdict(m, va, vb)
			word := "ok"
			switch {
			case regressed:
				word = "REGRESSION"
				bad++
			case worse < -100*m.Bound:
				word = "better"
			}
			dir := "worse"
			if worse < 0 {
				dir, worse = "better", -worse
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.2f%% %s (of %.6g)\t%.0f%%\t%s\n",
				name, m.Name, va, vb, m.Unit, worse, dir, va, 100*m.Bound, word)
		}
		// failed_ratio: any increase counts.
		fa, fb := ratio(ra.Failed, ra.Attempted), ratio(rb.Failed, rb.Attempted)
		word := "ok"
		if fb > fa {
			word = "REGRESSION"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed_ratio\t%.6g\t%.6g\tratio\t%d/%d -> %d/%d\tany\t%s\n",
			name, fa, fb, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, word)
	}
	tw.Flush() // the table goes to stdout; a failed write there has no better channel
	if bad > 0 {
		fmt.Fprintf(stdout, "%d end-to-end metric(s) past their bound\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "every end-to-end metric within its bound")
	return 0
}

func ratio(failed, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
