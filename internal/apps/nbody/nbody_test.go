package nbody

import (
	"math"
	"testing"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func small() *App { return New(1_500, 2, 9) }

func TestSequentialDeterministic(t *testing.T) {
	if small().Sequential() != small().Sequential() {
		t.Fatalf("sequential checksum not deterministic")
	}
}

// TestSequentialChecksumIsPinned pins the suite's small-scale checksums
// at two seeds: the x-sort in gen must leave the bodies, and so every
// force and step, bit-identical.
func TestSequentialChecksumIsPinned(t *testing.T) {
	for seed, want := range map[int64]uint64{1: 0x1c0b2ff9f1c53314, 2: 0x8d465321bc917e86} {
		if got := New(4_000, 2, seed).Sequential(); got != want {
			t.Errorf("seed %d: checksum %#x, want %#x", seed, got, want)
		}
	}
}

func TestTreeMassConservation(t *testing.T) {
	a := small()
	bodies := a.gen()
	tr := build(bodies)
	var want float64
	for i := range bodies {
		want += bodies[i].M
	}
	if got := tr.nodes[0].mass; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("root mass = %v, want %v", got, want)
	}
}

func TestTreeCountsBodies(t *testing.T) {
	a := small()
	bodies := a.gen()
	tr := build(bodies)
	if tr.nodes[0].n != len(bodies) {
		t.Fatalf("root body count = %d, want %d", tr.nodes[0].n, len(bodies))
	}
}

func TestForceMatchesDirectSummationOnTinySystem(t *testing.T) {
	// With theta=0 Barnes-Hut degenerates to direct summation.
	bodies := []Body{
		{X: 0.2, Y: 0.2, M: 1},
		{X: 0.8, Y: 0.8, M: 2},
		{X: 0.5, Y: 0.1, M: 1.5},
	}
	tr := build(bodies)
	const soft = 1e-4
	for i := range bodies {
		ax, ay, _ := tr.force(bodies, i, 0)
		var wx, wy float64
		for j := range bodies {
			if i == j {
				continue
			}
			dx, dy := bodies[j].X-bodies[i].X, bodies[j].Y-bodies[i].Y
			d2 := dx*dx + dy*dy + soft
			inv := 1 / (d2 * math.Sqrt(d2))
			wx += bodies[j].M * dx * inv
			wy += bodies[j].M * dy * inv
		}
		if math.Abs(ax-wx) > 1e-9 || math.Abs(ay-wy) > 1e-9 {
			t.Fatalf("body %d: force (%v,%v), want (%v,%v)", i, ax, ay, wx, wy)
		}
	}
}

func TestThetaReducesInteractions(t *testing.T) {
	a := small()
	bodies := a.gen()
	tr := build(bodies)
	_, _, exact := tr.force(bodies, 0, 0)
	_, _, approx := tr.force(bodies, 0, 0.7)
	if approx >= exact {
		t.Fatalf("theta=0.7 interactions (%d) should be below direct (%d)", approx, exact)
	}
}

func TestDenseChunksCostMore(t *testing.T) {
	// The dense core must make some chunks much more expensive than
	// others — the imbalance this benchmark exists to provide.
	a := small()
	bodies := a.gen()
	tr := build(bodies)
	ax := make([]float64, a.N)
	ay := make([]float64, a.N)
	minI, maxI := math.MaxInt, 0
	for _, ch := range apps.Chunks(a.N, a.ChunkSize) {
		inter := a.forceChunk(tr, bodies, ax, ay, ch[0], ch[1])
		if inter < minI {
			minI = inter
		}
		if inter > maxI {
			maxI = inter
		}
	}
	if maxI < minI*3/2 {
		t.Fatalf("interaction counts too uniform: min %d max %d", minI, maxI)
	}
}

func TestBodiesStayInDomain(t *testing.T) {
	a := small()
	a.run(func(tr *tree, bodies []Body, ax, ay []float64, chunks [][2]int) {
		for _, ch := range chunks {
			a.forceChunk(tr, bodies, ax, ay, ch[0], ch[1])
		}
		for i := range bodies {
			if bodies[i].X < 0 || bodies[i].X >= 1 || bodies[i].Y < 0 || bodies[i].Y >= 1 {
				t.Fatalf("body %d escaped: %+v", i, bodies[i])
			}
		}
	})
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
	a := small()
	g, err := a.Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	// Per step: one build task, one force task and one integrate task per
	// chunk.
	want := a.Steps * (2*len(apps.Chunks(a.N, a.ChunkSize)) + 1)
	if g.NumTasks() != want {
		t.Fatalf("NumTasks = %d, want %d", g.NumTasks(), want)
	}
	mean := apps.MeanFlexibleCostNS(g)
	if mean < 560_000_000 || mean > 690_000_000 {
		t.Fatalf("mean flexible granularity = %d, want ~623ms", mean)
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
