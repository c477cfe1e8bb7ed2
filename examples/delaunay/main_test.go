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

// TestSmoke runs the triangulation of every point.
func TestSmoke(t *testing.T) {
	wantLines(t, runMain(t),
		`triangulated 3000 points into [1-9]\d* triangles across [1-9]\d* leaf regions`,
		`region tasks migrated: \d+ \(remote steals \d+, local steals \d+\)`)
}
