package main

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"distws/internal/task"
)

// TestSleepCheckRefusesAShortArgument pins svc.sleep's argument check,
// which the front door runs at admission: runTask reads 8 bytes, so a
// shorter argument must be refused before an executor is handed it, and
// so must a duration past maxSleep, which would park an executor worker.
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
	// distws-load's default -sleep.
	if err := check(binary.BigEndian.AppendUint64(nil, uint64(5*time.Millisecond))); err != nil {
		t.Fatalf("a 5ms sleep was refused: %v", err)
	}
	err := check(binary.BigEndian.AppendUint64(nil, math.MaxInt64))
	if err == nil || !strings.Contains(err.Error(), maxSleep.String()) {
		t.Fatalf("a sleep of 2^63-1 ns: check = %v, want a refusal naming the %v ceiling", err, maxSleep)
	}
}
