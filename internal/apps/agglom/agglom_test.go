package agglom

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
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

// TestSequentialChecksumIsPinned pins the Sequential checksum at test and
// suite.Medium scale (1_200 * 4 points) and two seeds: a rewrite of the
// nearest-neighbour scan must pick the same neighbour every round, and so
// leave every merge, and the checksum, bit-identical. The values are
// amd64's; another architecture may fuse a multiply-add into one rounding.
func TestSequentialChecksumIsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("checksums pinned on amd64, where no multiply-add is fused")
	}
	// want[seed]: test scale, then suite.Medium.
	want := map[int64][2]uint64{
		1: {0x7c55ce0f4bed83af, 0xea0796e0ab9d095e},
		2: {0x7552da56beea2af6, 0xfd85a40b6a5e12a7},
	}
	for seed, w := range want {
		for i, n := range []int{small().n, 1_200 * 4} {
			if got := New(n, seed).Sequential(); got != w[i] {
				t.Errorf("seed %d, %d points: checksum %#x, want %#x", seed, n, got, w[i])
			}
		}
	}
}

func TestNNChunkFindsNearest(t *testing.T) {
	act := []Cluster{{X: 0, Y: 0, Size: 1}, {X: 1, Y: 0, Size: 1}, {X: 0.1, Y: 0, Size: 1}}
	nn := make([]int, 3)
	work := newRound(act).nnChunk(nn, 0, 3)
	if nn[0] != 2 || nn[2] != 0 || nn[1] != 2 {
		t.Fatalf("nn = %v, want [2 2 0]", nn)
	}
	if work != 6 {
		t.Fatalf("work = %d, want 6 distance evaluations", work)
	}
}

// nnChunkNaive is the all-pairs scan the sweep replaced, kept as its
// reference: every pair, lowest index on a tie.
func nnChunkNaive(act []Cluster, nn []int, lo, hi int) int {
	work := 0
	for i := lo; i < hi; i++ {
		best, bestD := -1, math.MaxFloat64
		for j := range act {
			if j == i {
				continue
			}
			dx, dy := act[i].X-act[j].X, act[i].Y-act[j].Y
			d := float64(dx*dx) + float64(dy*dy)
			work++
			if d < bestD || (d == bestD && j < best) {
				best, bestD = j, d
			}
		}
		nn[i] = best
	}
	return work
}

// adversarialRounds are rounds built to break a sweep: every cluster on
// one vertical line (all X tied, so no side ever stops), duplicate points,
// and equidistant neighbours on either side of a cluster with the lower
// index on one side and then on the other, so that whichever side the
// sweep visits second holds the winner.
func adversarialRounds() [][]Cluster {
	line := make([]Cluster, 40)
	for i := range line {
		line[i] = Cluster{X: 0.5, Y: float64(i%7) / 8, Size: 1}
	}
	dups := make([]Cluster, 50)
	for i := range dups {
		dups[i] = Cluster{X: float64(i % 3), Y: 0.5, Size: 1}
	}
	c := func(x, y float64) Cluster { return Cluster{X: x, Y: y, Size: 1} }
	return [][]Cluster{
		line, dups,
		{c(0, 0), c(2, 0), c(1, 0)}, // lower index left of 2
		{c(2, 0), c(0, 0), c(1, 0)}, // lower index right of 2
		{c(0.25, 0.5), c(0.75, 0.5), c(0.5, 0.5), c(0.5, 0.75), c(0.5, 0.25)},
		{c(0.5, 0.5), c(0.5, 0.5), c(0.5, 0.5)}, // one point three times
	}
}

// checkRound checks every chunk's nn and work count against the naive
// scan, and returns the naive nn.
func checkRound(t *testing.T, name string, act []Cluster, chunk int) []int {
	t.Helper()
	r := newRound(act)
	got, want := make([]int, len(act)), make([]int, len(act))
	for _, ch := range apps.Chunks(len(act), chunk) {
		gw, ww := r.nnChunk(got, ch[0], ch[1]), nnChunkNaive(act, want, ch[0], ch[1])
		if gw != ww {
			t.Fatalf("%s chunk %v: work %d, naive %d", name, ch, gw, ww)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: nn %v, naive %v", name, got, want)
	}
	return want
}

// TestNNChunkMatchesNaive checks the sweep against the all-pairs scan
// on the adversarial rounds and on every round of whole clusterings at
// seeds 1-8, at 600 and at suite.Medium's 4 800 points.
func TestNNChunkMatchesNaive(t *testing.T) {
	for r, act := range adversarialRounds() {
		checkRound(t, fmt.Sprintf("adversarial round %d", r), act, 2)
	}
	for _, n := range []int{600, 1_200 * 4} {
		for seed := int64(1); seed <= 8; seed++ {
			a := New(n, seed)
			act := a.gen()
			for rd := 0; len(act) > 1; rd++ {
				nn := checkRound(t, fmt.Sprintf("%d points, seed %d, round %d", n, seed, rd), act, a.chunkSize)
				var merges int
				if act, merges = mergeMutual(act, nn, new(apps.Fnv1a)); merges == 0 {
					break
				}
			}
		}
	}
}

// BenchmarkNNChunk times one full nearest-neighbour round over the
// suite.Medium input (4 800 clusters): the all-pairs scan against the
// sweep, whose X sort is timed with it.
func BenchmarkNNChunk(b *testing.B) {
	act := New(1_200*4, 1).gen()
	nn := make([]int, len(act))
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nnChunkNaive(act, nn, 0, len(act))
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newRound(act).nnChunk(nn, 0, len(act))
		}
	})
}

func TestMergeMutualPairs(t *testing.T) {
	act := []Cluster{
		{X: 0, Y: 0, Size: 1}, {X: 0.1, Y: 0, Size: 3}, // mutual pair
		{X: 10, Y: 10, Size: 1}, // loner (its nn is not mutual)
	}
	nn := []int{1, 0, 1}
	next, merges := mergeMutual(act, nn, new(apps.Fnv1a))
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
	for len(act) > 1 && rounds < maxRounds {
		nn := make([]int, len(act))
		newRound(act).nnChunk(nn, 0, len(act))
		var merges int
		act, merges = mergeMutual(act, nn, new(apps.Fnv1a))
		if merges == 0 {
			break
		}
		rounds++
	}
	if len(act) != 1 {
		t.Fatalf("clustering stopped at %d clusters after %d rounds", len(act), rounds)
	}
	if act[0].Size != a.n {
		t.Fatalf("final cluster size %d, want %d", act[0].Size, a.n)
	}
}

// TestParallelMatchesSequential runs one App sequentially, in parallel
// under each policy and sequentially again: every checksum must match,
// and the clusters every run shares must still equal a fresh generation.
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
	if !reflect.DeepEqual(a.input(), a.gen()) {
		t.Fatalf("a run changed the shared input clusters")
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
