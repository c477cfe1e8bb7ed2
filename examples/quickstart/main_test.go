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

// TestSmoke runs the quickstart: every pinned and flexible task ran once
// and the at() block ran at place 3.
func TestSmoke(t *testing.T) {
	wantLines(t, runMain(t),
		`root activity at place 0 of 4`,
		`at\(\) block executing at place 3`,
		`pinned tasks: 4, flexible tasks: 64`,
		`scheduler: \d+ local steals, \d+ remote steals, \d+ tasks migrated`,
		`communication: \d+ messages, \d+ bytes`)
}
