package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.TasksExecuted.Add(10)
	c.TasksSpawned.Add(12)
	c.LocalSteals.Add(3)
	c.RemoteSteals.Add(2)
	c.Messages.Add(7)
	c.BytesTransferred.Add(1024)

	s := c.Snapshot()
	if s.TasksExecuted != 10 || s.TasksSpawned != 12 {
		t.Fatalf("task counts: got %d/%d, want 10/12", s.TasksExecuted, s.TasksSpawned)
	}
	if got := s.Steals(); got != 5 {
		t.Fatalf("Steals() = %d, want 5", got)
	}
	if got := s.StealsToTaskRatio(); got != 0.5 {
		t.Fatalf("StealsToTaskRatio() = %v, want 0.5", got)
	}
}

func TestStealsToTaskRatioZeroTasks(t *testing.T) {
	var s Snapshot
	if got := s.StealsToTaskRatio(); got != 0 {
		t.Fatalf("ratio with zero tasks = %v, want 0", got)
	}
}

func TestCacheMissRate(t *testing.T) {
	s := Snapshot{CacheRefs: 200, CacheMisses: 41}
	if got, want := s.CacheMissRate(), 20.5; got != want {
		t.Fatalf("CacheMissRate() = %v, want %v", got, want)
	}
	var zero Snapshot
	if zero.CacheMissRate() != 0 {
		t.Fatalf("CacheMissRate() with no refs should be 0")
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.TasksExecuted.Add(1)
				c.Messages.Add(2)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.TasksExecuted != goroutines*per {
		t.Fatalf("TasksExecuted = %d, want %d", s.TasksExecuted, goroutines*per)
	}
	if s.Messages != 2*goroutines*per {
		t.Fatalf("Messages = %d, want %d", s.Messages, 2*goroutines*per)
	}
}

func TestSummarize(t *testing.T) {
	sp := Summarize([]float64{60, 95, 80, 65})
	if sp.Min != 60 || sp.Max != 95 {
		t.Fatalf("min/max = %v/%v, want 60/95", sp.Min, sp.Max)
	}
	if sp.Mean != 75 {
		t.Fatalf("mean = %v, want 75", sp.Mean)
	}
	if sp.Disparity != 35 {
		t.Fatalf("disparity = %v, want 35", sp.Disparity)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if sp := Summarize(nil); sp != (Spread{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", sp)
	}
}

func TestVariance(t *testing.T) {
	if v := Variance([]float64{5, 5, 5}); v != 0 {
		t.Fatalf("variance of constant series = %v, want 0", v)
	}
	v := Variance([]float64{2, 4})
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("variance = %v, want 1", v)
	}
}

// Property: disparity is always >= 0 and Mean lies in [Min, Max].
func TestSummarizeProperties(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs { // bound to the utilization domain [0, 100]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			xs[i] = math.Mod(math.Abs(x), 100)
		}
		sp := Summarize(xs)
		if len(xs) == 0 {
			return sp == Spread{}
		}
		return sp.Disparity >= 0 && sp.Mean >= sp.Min-1e-9 && sp.Mean <= sp.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is non-negative.
func TestVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			// Utilization fractions live in [0, 100]; huge or non-finite
			// values would overflow the squared deviations.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			xs[i] = math.Mod(math.Abs(x), 100)
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatSeries(t *testing.T) {
	s := FormatSeries([]float64{10.05, 20})
	if s != "p0=10.1% p1=20.0%" && s != "p0=10.0% p1=20.0%" {
		t.Fatalf("FormatSeries = %q", s)
	}
}

func TestSnapshotString(t *testing.T) {
	var c Counters
	c.TasksExecuted.Add(1)
	if got := c.Snapshot().String(); got == "" {
		t.Fatalf("String() should be non-empty")
	}
}

func TestSnapshotStringFaultSuffix(t *testing.T) {
	var c Counters
	c.TasksExecuted.Add(1)
	clean := c.Snapshot().String()
	if strings.Contains(clean, "faults(") {
		t.Fatalf("fault-free snapshot should omit the fault suffix: %q", clean)
	}
	c.StealTimeouts.Add(3)
	c.TasksReExecuted.Add(2)
	faulty := c.Snapshot().String()
	if !strings.Contains(faulty, "faults(timeouts=3") || !strings.Contains(faulty, "reExecuted=2") {
		t.Fatalf("fault suffix missing: %q", faulty)
	}
}
