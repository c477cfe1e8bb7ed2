package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultsAndTraceReachEveryApp runs a fork-join and a dataflow app on
// both engines under one crash and one trace: each run must lose the
// crashed place, verify its checksum on the runtime, and write the trace.
// In the simulator place 1 crashes after its 100th task: it is home to
// about half of either app's ~800 tasks, and the schedule is fixed by the
// seed. On the runtime how many tasks place 1 runs depends on the
// schedule, so it crashes on the wall clock instead, 1 µs in, long before
// either run ends.
func TestFaultsAndTraceReachEveryApp(t *testing.T) {
	crash := map[string][]string{
		"sim":     {"-crash-after-tasks", "100"},
		"runtime": {"-crash-at", "1us"},
	}
	for _, app := range []string{"quicksort", "cholesky"} {
		for _, mode := range []string{"sim", "runtime"} {
			t.Run(app+"/"+mode, func(t *testing.T) {
				trace := filepath.Join(t.TempDir(), "run.events")
				var out bytes.Buffer
				args := []string{"-app", app, "-mode", mode, "-places", "2", "-workers", "2",
					"-crash-place", "1", "-trace", trace}
				err := run(append(args, crash[mode]...), &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !strings.Contains(out.String(), " 1 places lost") {
					t.Errorf("no place lost:\n%s", out.String())
				}
				if mode == "runtime" && !strings.Contains(out.String(), "OK (matches reference)") {
					t.Errorf("no checksum OK line:\n%s", out.String())
				}
				if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
					t.Errorf("trace %s missing or empty (err %v)", trace, err)
				}
			})
		}
	}
}

// TestRefusesFlagsThePathDoesNotRead pins that a flag the run would
// ignore fails before any work, naming what the run reads instead.
func TestRefusesFlagsThePathDoesNotRead(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		reads string
	}{
		{[]string{"-app", "quicksort", "-dag-policy", "data-aware"}, "-scale"},
		{[]string{"-app", "cholesky", "-scale", "2"}, "-dag-policy"},
		{[]string{"-app", "dmg", "-mode", "sim", "-deque", "relaxed"}, "-scale"},
		{[]string{"-app", "cholesky", "-mode", "sim", "-timeout", "1s"}, "-dag-policy"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), "does not apply") || !strings.Contains(err.Error(), tc.reads) {
			t.Errorf("run %q: err %v, want a refusal naming %s", tc.args, err, tc.reads)
		}
		if out.Len() != 0 {
			t.Errorf("run %q printed before refusing:\n%s", tc.args, out.String())
		}
	}
}

// TestRefusesTheRemovedAdaptivePolicy pins that -policy adaptive fails
// before any work and names the five policies of the paper's study.
func TestRefusesTheRemovedAdaptivePolicy(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-app", "quicksort", "-policy", "adaptive"}, &out)
	if err == nil {
		t.Fatal("-policy adaptive ran")
	}
	if out.Len() != 0 {
		t.Fatalf("printed before refusing:\n%s", out.String())
	}
	want := "valid policies are: x10ws distws distws-ns randomws lifelinews"
	if !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("err %v, want it to end %q", err, want)
	}
}
