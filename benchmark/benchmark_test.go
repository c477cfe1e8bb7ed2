package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"distws/internal/obs"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {9, 50}, {20, 50}, // too few for any rung: the median
		{39, 50}, {40, 75}, // p75 of 40 leaves exactly 10 beyond
		{99, 75}, {100, 90},
		{199, 90}, {200, 95},
		{999, 95}, {1000, 99},
		{9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 1, Start: 15, End: 25},    // grandchild: covers the child, not the root
		{ID: 3, Parent: 0, Start: 30, End: 60},    // overlaps child 1 by 10
		{ID: 4, Parent: 0, Start: 90, End: 120},   // sticks out of the root by 20
		{ID: 5, Parent: 0, Start: 35, End: 38},    // inside the overlap of 1 and 3
		{ID: 6, Parent: -1, Start: 200, End: 200}, // empty
	}
	want := []int64{
		100 - (50 + 10), // [10,60) and [90,100)
		30 - 10,
		10,
		30,
		30,
		3,
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAnalyzeCoreNestsActivitiesAndTimesSteals(t *testing.T) {
	ev := func(ts int64, worker int32, k obs.Kind, dur int64) obs.TrackEvent {
		return obs.TrackEvent{Event: obs.Event{TS: ts, Kind: k, Dur: dur}, Worker: worker}
	}
	td := &obs.TraceData{Dropped: 3, Events: []obs.TrackEvent{
		ev(0, 0, obs.KindTaskStart, 0),  // root activity on worker 0 ...
		ev(10, 0, obs.KindTaskStart, 0), // ... helps with a nested one while it waits
		ev(20, 1, obs.KindTaskStart, 0),
		ev(30, 0, obs.KindTaskEnd, 20),
		ev(40, 1, obs.KindTaskEnd, 20),
		ev(45, 0, obs.KindSpawn, 0),      // somebody's spawn on worker 0's track: ignored
		ev(47, 1, obs.KindStealLocal, 0), // 7 ns after worker 1's task end
		ev(50, 1, obs.KindStealFail, 0),
		ev(60, 1, obs.KindStealLocal, 0), // after a failed sweep: not a clean sample
		ev(70, 1, obs.KindStealRemote, 1234),
		ev(100, 0, obs.KindTaskEnd, 100),
	}}
	ct := analyzeCore(td)
	if ct.dropped != 3 {
		t.Errorf("dropped %d, want 3", ct.dropped)
	}
	if want := int64(80 + 20 + 20); ct.taskSelfNS != want {
		t.Errorf("task self time %d, want %d (root 100 minus nested 20, plus two of 20)", ct.taskSelfNS, want)
	}
	if len(ct.localNS) != 1 || ct.localNS[0] != 7 {
		t.Errorf("local steal latencies %v, want [7]", ct.localNS)
	}
	if len(ct.remoteNS) != 1 || ct.remoteNS[0] != 1234 {
		t.Errorf("remote steal latencies %v, want [1234]", ct.remoteNS)
	}
}

func TestShapesNeverExceedCPUsExceptOnOne(t *testing.T) {
	for _, c := range []struct {
		p          int
		two, one   shape
		twoW, oneW int
	}{
		{p: 1, two: shape{2, 1, true}, one: shape{1, 2, true}, twoW: 2, oneW: 2},
		{p: 2, two: shape{2, 1, false}, one: shape{1, 2, false}, twoW: 2, oneW: 2},
		{p: 3, two: shape{2, 1, false}, one: shape{1, 3, false}, twoW: 2, oneW: 3},
		{p: 8, two: shape{2, 4, false}, one: shape{1, 8, false}, twoW: 8, oneW: 8},
	} {
		if got := twoByK(c.p); got != c.two || got.total() != c.twoW {
			t.Errorf("twoByK(%d) = %+v (%d workers), want %+v (%d)", c.p, got, got.total(), c.two, c.twoW)
		}
		if got := oneByP(c.p); got != c.one || got.total() != c.oneW {
			t.Errorf("oneByP(%d) = %+v (%d workers), want %+v (%d)", c.p, got, got.total(), c.one, c.oneW)
		}
		// dag.Execute deadlocks on one worker; no P may produce that shape.
		if twoByK(c.p).total() < 2 {
			t.Errorf("twoByK(%d) has fewer than 2 workers", c.p)
		}
	}
}

func TestWatchdogReportsInsteadOfHanging(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	err := guarded("stuck", 20*time.Millisecond, func() error { <-block; return nil })
	if err == nil || !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("guarded on a stuck workload returned %v, want a watchdog error with a goroutine dump", err)
	}
	if err := guarded("fine", time.Second, func() error { return nil }); err != nil {
		t.Fatalf("guarded on a finishing workload: %v", err)
	}
}

func TestVerdictAppliesTheBoundInTheRightDirection(t *testing.T) {
	lower := specMetric{Name: "pass_ms_p10", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "work_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m         specMetric
		a, b      float64
		worse     float64
		regressed bool
	}{
		{lower, 100, 109, 9, false},
		{lower, 100, 111, 11, true},
		{lower, 100, 50, -50, false},
		{higher, 100, 91, 9, false},
		{higher, 100, 89, 11, true},
		{higher, 100, 200, -100, false},
	} {
		worse, regressed := verdict(c.m, c.a, c.b)
		if math.Abs(worse-c.worse) > 1e-9 || regressed != c.regressed {
			t.Errorf("verdict(%s, %v -> %v) = %+.2f%% %v, want %+.2f%% %v", c.m.Name, c.a, c.b, worse, regressed, c.worse, c.regressed)
		}
	}
}

func TestCompareExitsNonZeroPastABoundOrOnNewFailures(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{
		{Name: "pass_ms_p10", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	}}
	file := func(passMS, rate float64, failed int64) *resultFile {
		return &resultFile{Workloads: map[string]workloadResult{"rt-fine": {EndToEnd: &run{
			Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: rows{"pass_ms_p10": {passMS, "ms"}, "work_per_s": {rate, "1/s"}},
		}}}}
	}
	base := file(20, 1e6, 0)
	for _, c := range []struct {
		name string
		b    *resultFile
		want int
	}{
		{"same", file(20, 1e6, 0), 0},
		{"within", file(21.9, 0.91e6, 0), 0},
		{"slower", file(22.1, 1e6, 0), 1},
		{"less work", file(20, 0.89e6, 0), 1},
		{"new failure", file(20, 1e6, 1), 1},
		{"workload gone", &resultFile{}, 1},
	} {
		var out bytes.Buffer
		if got := compareResults(base, c.b, sp, &out); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
	// The criterion is applied both ways round: a run much better than
	// its partner makes the partner a regression of it.
	var out bytes.Buffer
	if compareResults(file(22.1, 1e6, 0), base, sp, &out) != 0 || compareResults(file(10, 1e6, 0), base, sp, &out) != 1 {
		t.Errorf("compare is not directional:\n%s", out.String())
	}
}

func TestCompareFoldsADirectoryOfRunsIntoMedians(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{Name: "pass_ms_p10", Unit: "ms", Better: "lower", Bound: 0.10}}}
	write := func(dir string, passMS ...float64) {
		for i, v := range passMS {
			f := resultFile{Workloads: map[string]workloadResult{"sim-paper": {EndToEnd: &run{
				Correct: true, Attempted: 10, Metrics: rows{"pass_ms_p10": {v, "ms"}}}}}}
			b, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			sub := filepath.Join(dir, string(rune('a'+i)))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sub, "result.json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := t.TempDir(), t.TempDir()
	write(a, 100, 90, 400) // one run hit by a neighbour: the median ignores it
	write(b, 105, 95, 101)
	var out, errOut bytes.Buffer
	if code := compareFiles(a, b, sp, &out, &errOut); code != 0 {
		t.Errorf("sets with medians 100 and 101: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	got, err := readSide(a)
	if err != nil {
		t.Fatal(err)
	}
	if r := got.Workloads["sim-paper"].EndToEnd; r.Metrics["pass_ms_p10"].Value != 100 || r.Attempted != 30 {
		t.Errorf("folded set: %+v, want median 100 and 30 attempted", r)
	}
	if code := compareFiles(a, t.TempDir(), sp, &out, &errOut); code == 0 {
		t.Errorf("an empty directory compared clean")
	}
}

// TestQuickSmoke runs the whole command in-process at smoke size and checks
// the contract: every metric BENCHMARK.json names is emitted exactly once
// per workload, finite, with nothing failed, and the cross-workload
// predictions the layer table makes hold.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-quick", "-seconds", "0.3", "-out", dir, "-spec", filepath.Join("..", "BENCHMARK.json")}
	if code := cli(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout tail: %s", code, stderr.String(), tail(stdout.String(), 2000))
	}
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := readResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Env.P != runtime.NumCPU() || res.Env.GOMAXPROCS != res.Env.P || res.Env.GoVersion == "" || res.Env.Seed != 1 {
		t.Errorf("environment not recorded: %+v", res.Env)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloadNames))
	}
	for _, w := range sp.Workloads {
		wr, ok := res.Workloads[w.Name]
		if !ok || wr.EndToEnd == nil || wr.PerLayer == nil {
			t.Errorf("%s: missing from the result", w.Name)
			continue
		}
		for side, part := range map[string]struct {
			r    *run
			list []specMetric
		}{"end_to_end": {wr.EndToEnd, sp.EndToEnd}, "per_layer": {wr.PerLayer, sp.PerLayer}} {
			if !part.r.Correct || part.r.Failed != 0 || part.r.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.Name, side, part.r.Correct, part.r.Attempted, part.r.Failed)
			}
			if len(part.r.Metrics) != len(part.list) {
				t.Errorf("%s %s: %d metrics, BENCHMARK.json names %d", w.Name, side, len(part.r.Metrics), len(part.list))
			}
			for _, m := range part.list {
				got, ok := part.r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", w.Name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s in %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, got.Value)
				case side == "end_to_end" && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}

	layer := func(workload, name string) float64 { return res.Workloads[workload].PerLayer.Metrics[name].Value }
	if got := layer("rt-local", "core.remote_steals_per_pass"); got != 0 {
		t.Errorf("rt-local made %v remote steals per pass; it has one place", got)
	}
	if got := layer("rt-local", "core.remote_probes_per_pass"); got != 0 {
		t.Errorf("rt-local sent %v remote probes per pass; it has one place", got)
	}
	if got := layer("rt-fine", "core.local_steals_per_pass"); runtime.NumCPU() == 2 && got != 0 {
		t.Errorf("rt-fine made %v local steals per pass on 2x1; a place has one worker", got)
	}
	if got := layer("rt-fine", "core.remote_steals_per_pass"); got == 0 {
		t.Errorf("rt-fine made no remote steals: the workload no longer exercises the distributed steal")
	}
	if got := layer("svc-mesh", "comm.svc_messages_per_job"); got != 4 {
		t.Errorf("svc-mesh sent %v messages per job, want 4 (submit, spawn, done, reply)", got)
	}

	// No core or deque span may hang under a svc-mesh or sim-paper pass.
	spans := readSpans(t, filepath.Join(dir, "spans.jsonl"))
	if !layersIn(spans)["core"] || !layersIn(spans)["service"] || !layersIn(spans)["sim"] {
		t.Errorf("span dump lacks layers: %v", layersIn(spans))
	}
	for _, s := range spans {
		root := s
		for root.Parent >= 0 {
			root = spans[root.Parent]
		}
		idle := strings.HasPrefix(root.Name, "svc-mesh") || strings.HasPrefix(root.Name, "sim-paper")
		if idle && (s.Layer == "core" || s.Layer == "deque" || s.Layer == "apps" || s.Layer == "dag") {
			t.Errorf("span %s/%s under %q: that workload must not touch the layer", s.Layer, s.Name, root.Name)
		}
	}
}

func TestOneWorkloadPrintsTheContractLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "-workload", "sim-paper", "-seed", "7", "-seconds", "0.2", "-trace", trace,
			"-out", "", "-spec", filepath.Join("..", "BENCHMARK.json")}
		if code := cli(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("-trace %s: last line is not JSON: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if len(last) != 4 {
			t.Errorf("-trace %s: last line has keys %v, want exactly correct, attempted, failed, metrics", trace, last)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := last[k]; !ok {
				t.Errorf("-trace %s: last line lacks %q", trace, k)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-workload", "nope", "-spec", filepath.Join("..", "BENCHMARK.json")}, &stdout, &stderr); code == 0 {
		t.Errorf("unknown workload exited 0")
	}
}

// layersIn lists the distinct layers that own a span.
func layersIn(spans []span) map[string]bool {
	out := make(map[string]bool)
	for _, s := range spans {
		out[s.Layer] = true
	}
	return out
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if i == 0 {
			continue // header
		}
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %d: %v", i, err)
		}
		spans = append(spans, s)
	}
	return spans
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}
