package agglom

import (
	"testing"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func small() *App { return New(600, 13) }

func TestSequentialDeterministic(t *testing.T) {
	if small().Sequential() != small().Sequential() {
		t.Fatalf("sequential checksum not deterministic")
	}
}

func TestNNChunkFindsNearest(t *testing.T) {
	act := []Cluster{{X: 0, Y: 0, Size: 1}, {X: 1, Y: 0, Size: 1}, {X: 0.1, Y: 0, Size: 1}}
	nn := make([]int, 3)
	work := nnChunk(act, nn, 0, 3)
	if nn[0] != 2 || nn[2] != 0 || nn[1] != 2 {
		t.Fatalf("nn = %v, want [2 2 0]", nn)
	}
	if work != 6 {
		t.Fatalf("work = %d, want 6 distance evaluations", work)
	}
}

func TestMergeMutualPairs(t *testing.T) {
	act := []Cluster{
		{X: 0, Y: 0, Size: 1}, {X: 0.1, Y: 0, Size: 3}, // mutual pair
		{X: 10, Y: 10, Size: 1}, // loner (its nn is not mutual)
	}
	nn := []int{1, 0, 1}
	next, merges := mergeMutual(act, nn, nil)
	if merges != 1 {
		t.Fatalf("merges = %d, want 1", merges)
	}
	if len(next) != 2 {
		t.Fatalf("survivors = %d, want 2", len(next))
	}
	// Weighted centroid: (0*1 + 0.1*3)/4 = 0.075.
	if next[0].Size != 4 || next[0].X < 0.0749 || next[0].X > 0.0751 {
		t.Fatalf("merged cluster = %+v", next[0])
	}
}

func TestClusteringConvergesToOne(t *testing.T) {
	a := small()
	act := a.gen()
	rounds := 0
	for len(act) > 1 && rounds < a.MaxRounds {
		nn := make([]int, len(act))
		nnChunk(act, nn, 0, len(act))
		var merges int
		act, merges = mergeMutual(act, nn, nil)
		if merges == 0 {
			break
		}
		rounds++
	}
	if len(act) != 1 {
		t.Fatalf("clustering stopped at %d clusters after %d rounds", len(act), rounds)
	}
	if act[0].Size != a.N {
		t.Fatalf("final cluster size %d, want %d", act[0].Size, a.N)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	want := small().Sequential()
	for _, policy := range []sched.Kind{sched.X10WS, sched.DistWS} {
		rt, err := core.New(core.Config{
			Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
			Policy:  policy,
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := small().Parallel(rt)
		rt.Shutdown()
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if got != want {
			t.Fatalf("%v: parallel %x != sequential %x", policy, got, want)
		}
	}
}

func TestTraceValidAndCalibrated(t *testing.T) {
	g, err := small().Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() < 10 {
		t.Fatalf("trace too small: %d", g.NumTasks())
	}
	if f := g.FlexibleFraction(); f < 0.5 {
		t.Fatalf("flexible fraction = %v, want > 0.5 (chunk tasks dominate)", f)
	}
	mean := apps.MeanFlexibleCostNS(g)
	if mean < 480_000_000 || mean > 580_000_000 {
		t.Fatalf("mean flexible granularity = %d, want ~529ms", mean)
	}
}

func TestTraceRunsInSimulator(t *testing.T) {
	g, err := small().Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = 4, 2
	r, err := sim.Run(g, cl, sched.DistWS, sim.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.TasksExecuted != int64(g.NumTasks()) {
		t.Fatalf("executed %d of %d", r.Counters.TasksExecuted, g.NumTasks())
	}
}
