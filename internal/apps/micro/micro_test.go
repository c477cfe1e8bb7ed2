package micro

import (
	"math"
	"testing"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func newRT(t *testing.T, policy sched.Kind) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.Config{
		Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
		Policy:  policy,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// All five micro apps: sequential determinism, parallel equivalence, and
// a valid simulator trace.
func TestSuiteSequentialParallelTrace(t *testing.T) {
	for _, app := range Suite(3) {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			want := app.Sequential()
			if want != app.Sequential() {
				t.Fatalf("sequential checksum not deterministic")
			}
			rt := newRT(t, sched.DistWS)
			got, err := app.Parallel(rt)
			if err != nil {
				t.Fatalf("Parallel: %v", err)
			}
			if got != want {
				t.Fatalf("parallel %x != sequential %x", got, want)
			}
			g, err := app.Trace(4)
			if err != nil {
				t.Fatalf("Trace: %v", err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			cl := topology.Paper()
			cl.Places, cl.WorkersPerPlace = 4, 2
			r, err := sim.Run(g, cl, sched.DistWS, sim.Options{Seed: 2})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if r.Counters.TasksExecuted != int64(g.NumTasks()) {
				t.Fatalf("executed %d of %d", r.Counters.TasksExecuted, g.NumTasks())
			}
		})
	}
}

// The granularities must match the paper's Table (§VIII-Q2): 0.12, 0.93,
// 0.005, 0.09, 0.006 ms.
func TestGranularitiesMatchPaper(t *testing.T) {
	wantMS := map[string]float64{
		"mergesort":     0.12,
		"skyline":       0.93,
		"montecarlo-pi": 0.005,
		"matchain":      0.09,
		"randomaccess":  0.006,
	}
	for _, app := range Suite(3) {
		g, err := app.Trace(4)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		got := float64(apps.MeanFlexibleCostNS(g)) / 1e6
		want := wantMS[app.Name()]
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("%s: granularity %.4f ms, want ~%.4f ms", app.Name(), got, want)
		}
	}
}

func TestMergeSortSortsCorrectly(t *testing.T) {
	m := NewMergeSort(5_000, 9)
	d := m.gen()
	msort(d, m.Cutoff)
	for i := 1; i < len(d); i++ {
		if d[i-1] > d[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestMonteCarloPiEstimate(t *testing.T) {
	m := NewMonteCarloPi(200_000, 1000, 7)
	total := 0
	for b := 0; b < m.batches(); b++ {
		total += m.inside(b)
	}
	pi := 4 * float64(total) / float64(m.Samples)
	if math.Abs(pi-math.Pi) > 0.05 {
		t.Fatalf("π estimate %v too far off", pi)
	}
}

func TestMatChainKnownSmallCase(t *testing.T) {
	// Chain of 3 matrices with dims 10x20, 20x5, 5x15:
	// best = min(10*20*5 + 10*5*15 = 1750, 20*5*15 + 10*20*15 = 4500).
	m := &MatChain{N: 3, Seed: 0}
	d := []int64{10, 20, 5, 15}
	dp := [][]int64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	dp[0][1] = cell(dp, d, 0, 1)
	dp[1][2] = cell(dp, d, 1, 2)
	if got := cell(dp, d, 0, 2); got != 1750 {
		t.Fatalf("matrix chain cost = %d, want 1750", got)
	}
	_ = m
}

func TestRandomAccessXORCommutes(t *testing.T) {
	r := NewRandomAccess(1024, 5_000, 100, 5)
	// Applying batches in reverse yields the same table checksum.
	fwd := make([]uint64, r.TableSize)
	rev := make([]uint64, r.TableSize)
	for b := 0; b < r.batches(); b++ {
		r.apply(fwd, b)
	}
	for b := r.batches() - 1; b >= 0; b-- {
		r.apply(rev, b)
	}
	if checksumTable(fwd) != checksumTable(rev) {
		t.Fatalf("XOR updates should commute")
	}
}

func TestSkylineBandStructure(t *testing.T) {
	s := NewSkyline(32, 4, 2)
	a := s.gen()
	for i := 0; i < s.N; i++ {
		lo, hi := s.bandOf(i)
		for j := 0; j < s.N; j++ {
			if (j < lo || j >= hi) && a[i*s.N+j] != 0 {
				t.Fatalf("element (%d,%d) outside band is nonzero", i, j)
			}
		}
	}
}
