package kmeans

import (
	"reflect"
	"testing"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func small() *App { return New(4_000, 5, 11) }

func TestSequentialDeterministic(t *testing.T) {
	if small().Sequential() != small().Sequential() {
		t.Fatalf("sequential checksum not deterministic")
	}
}

// TestSequentialChecksumIsPinned pins the suite's small-scale checksums
// at two seeds: the x-sort in gen must leave the input, and so every
// centroid, bit-identical.
func TestSequentialChecksumIsPinned(t *testing.T) {
	for seed, want := range map[int64]uint64{1: 0x238adf4a9d86d8c, 2: 0x41892219b9277882} {
		if got := New(8_000, 5, seed).Sequential(); got != want {
			t.Errorf("seed %d: checksum %#x, want %#x", seed, got, want)
		}
	}
}

func TestGenIsClusteredAndSorted(t *testing.T) {
	pts := small().gen()
	if len(pts) != 4_000 {
		t.Fatalf("gen produced %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].X > pts[i].X {
			t.Fatalf("points not sorted by x at %d", i)
		}
	}
}

func TestSpatialPlacementIsSkewed(t *testing.T) {
	a := small()
	pts := a.gen()
	counts := make([]int, 4)
	for _, ch := range apps.Chunks(a.n, a.chunkSize) {
		counts[apps.Stripe(pts[ch[0]].X, 4)]++
	}
	minC, maxC := counts[0], counts[0]
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 2*minC+1 {
		t.Fatalf("chunk placement not skewed enough for the benchmark: %v", counts)
	}
}

func TestAssignChunkBasic(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {0.1, 0}, {0.9, 1}}
	cents := []Point{{0, 0}, {1, 1}, {-5, -5}, {5, 5}}
	p := assignChunk(pts, cents, 0, 4)
	if p.count[0] != 2 || p.count[1] != 2 {
		t.Fatalf("counts = %v, want [2 2 0 0]", p.count)
	}
}

func TestReduceHandlesEmptyCluster(t *testing.T) {
	var p partial
	p.sumX[0], p.sumY[0], p.count[0] = 10, 20, 2
	cents := []Point{{9, 9}, {7, 7}, {6, 6}, {5, 5}}
	counts := reduce([]partial{p}, cents)
	if cents[0].X != 5 || cents[0].Y != 10 {
		t.Fatalf("cluster 0 centroid = %v", cents[0])
	}
	if cents[1] != (Point{7, 7}) {
		t.Fatalf("empty cluster should keep previous centroid, got %v", cents[1])
	}
	if counts != [clusters]int64{2, 0, 0, 0} {
		t.Fatalf("counts = %v, want [2 0 0 0]", counts)
	}
}

// TestParallelMatchesSequential runs one App sequentially, in parallel
// under each policy and sequentially again: every checksum must match,
// and the points every run shares must still equal a fresh generation.
func TestParallelMatchesSequential(t *testing.T) {
	a := small()
	want := a.Sequential()
	for _, policy := range []sched.Kind{sched.X10WS, sched.DistWS} {
		rt, err := core.New(core.Config{
			Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
			Policy:  policy,
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Parallel(rt)
		rt.Shutdown()
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if got != want {
			t.Fatalf("%v: parallel %x != sequential %x", policy, got, want)
		}
	}
	if got := a.Sequential(); got != want {
		t.Fatalf("second sequential %x != first %x", got, want)
	}
	if !reflect.DeepEqual(a.points(), a.gen()) {
		t.Fatalf("a run changed the shared input points")
	}
}

func TestTraceValidAndCalibrated(t *testing.T) {
	a := small()
	g, err := a.Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	nChunks := len(apps.Chunks(a.n, a.chunkSize))
	want := (nChunks + 1) * a.iters // chunk tasks + reduce task per iter
	if g.NumTasks() != want {
		t.Fatalf("NumTasks = %d, want %d", g.NumTasks(), want)
	}
	mean := apps.MeanFlexibleCostNS(g)
	if mean < 350_000_000 || mean > 420_000_000 {
		t.Fatalf("mean flexible granularity = %d, want ~383ms", mean)
	}
}

func TestTraceRunsInSimulator(t *testing.T) {
	g, err := small().Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = 4, 2
	for _, policy := range []sched.Kind{sched.X10WS, sched.DistWS, sched.DistWSNS} {
		r, err := sim.Run(g, cl, policy, sim.Options{Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if r.Counters.TasksExecuted != int64(g.NumTasks()) {
			t.Fatalf("%v executed %d of %d", policy, r.Counters.TasksExecuted, g.NumTasks())
		}
	}
}
