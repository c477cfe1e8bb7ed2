package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The history file is a ledger: a run adds exactly one parseable line and
// leaves every earlier line as it was.
func TestAppendHistoryIsAppendOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), historyFile)
	rep := report{GoVersion: "go1.test", TracingOverheadPct: 9.5, AdaptiveOverheadPct: 7.25}
	rep.Simulator = simBench{NsPerOp: 2_000_000, AllocsPerOp: 391, EventsPerOp: 1000, EventsPerSec: 500_000}
	day := time.Date(2026, 9, 28, 12, 0, 0, 0, time.UTC)
	if err := appendHistory(path, rep, day); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep.Simulator.EventsPerSec = 600_000
	if err := appendHistory(path, rep, day.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []historyLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(lines) == 0 && sc.Text()+"\n" != string(first) {
			t.Fatalf("first line rewritten: %q, was %q", sc.Text(), first)
		}
		var l historyLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %d is not JSON: %v", len(lines)+1, err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines after two runs, want 2", len(lines))
	}
	want := historyLine{Date: "2026-09-28T12:00:00Z", GoVersion: "go1.test", EventsPerSec: 500_000,
		NsPerEvent: 2000, AllocsPerRun: 391, TracingOverheadPct: 9.5, AdaptiveOverheadPct: 7.25}
	if lines[0] != want {
		t.Fatalf("first line = %+v, want %+v", lines[0], want)
	}
	if lines[1].EventsPerSec != 600_000 || lines[1].Date != "2026-09-29T12:00:00Z" {
		t.Fatalf("second line = %+v", lines[1])
	}
}
