package main

import (
	"os"
	"regexp"
	"testing"
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

// TestSmoke runs the ring for its eight iterations.
func TestSmoke(t *testing.T) {
	wantLines(t, runMain(t),
		`after 8 iterations over 128 cells: prey \d+, predators \d+`,
		`cell load ranges from \d+ to \d+ bodies \(the imbalance DistWS absorbs\)`,
		`scheduler moved \d+ tasks across places \(\d+ remote steals\)`)
}
