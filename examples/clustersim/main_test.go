package main

import (
	"os"
	"regexp"
	"testing"

	"distws/internal/sched"
)

// runMain runs the example's main with stdout sent to a file and returns
// what it printed.
func runMain(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// wantLines fails unless every pattern matches a line of out.
func wantLines(t *testing.T, out string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile(`(?m)^` + p + `$`).MatchString(out) {
			t.Errorf("no line matches %q in:\n%s", p, out)
		}
	}
}

// TestSmoke runs the walkthrough: one row per scheduling policy, each
// with a positive speedup.
func TestSmoke(t *testing.T) {
	out := runMain(t)
	wantLines(t, out, `workload: dmg — \d+ tasks, \d+% locality-flexible, [0-9.]+s sequential \(virtual\)`,
		`policy +speedup +remote steals +migrated +messages +utilization disparity`)
	var policies []string
	for _, k := range sched.Kinds() {
		policies = append(policies, k.String())
		wantLines(t, out, regexp.QuoteMeta(k.String())+` +[1-9][0-9.]* +\d+ +\d+ +\d+ +[0-9.]+%`)
	}
	if len(policies) != 5 {
		t.Errorf("%d policies %v, the walkthrough's doc says five", len(policies), policies)
	}
}
