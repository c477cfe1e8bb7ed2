package main

import (
	"testing"

	"distws/internal/task"
)

// TestSleepCheckRefusesAShortArgument pins svc.sleep's argument check,
// which the front door runs at admission: runTask reads 8 bytes, so a
// shorter argument must be refused before an executor is handed it.
func TestSleepCheckRefusesAShortArgument(t *testing.T) {
	check, ok := task.DefaultRegistry.Lookup("svc.sleep")
	if !ok {
		t.Fatal("svc.sleep is not registered")
	}
	if err := check([]byte{1, 2, 3}); err == nil {
		t.Fatal("a 3-byte argument passed svc.sleep's check")
	}
	if err := check(make([]byte, 8)); err != nil {
		t.Fatalf("an 8-byte argument was refused: %v", err)
	}
}
