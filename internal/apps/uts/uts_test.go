package uts

import (
	"testing"

	"distws/internal/core"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func small() *App { return New(4, 8, 100_000, 5) }

func TestSequentialDeterministic(t *testing.T) {
	if small().Sequential() != small().Sequential() {
		t.Fatalf("sequential checksum not deterministic")
	}
}

func TestTreeIsNontrivialAndBounded(t *testing.T) {
	n := small().Count()
	if n < 100 {
		t.Fatalf("tree too small (%d nodes); pick a better seed/shape", n)
	}
	if n >= small().maxNodes {
		t.Fatalf("tree hit the cap")
	}
}

func TestTreeIsUnbalanced(t *testing.T) {
	// Subtree sizes under the root must differ substantially. Each child
	// of the root tags its subtree with the child's index in sizes.
	a := small()
	sizes := make([]int, 0, a.rootKids)
	a.dfs(func(parent int, _ uint64) int {
		switch parent {
		case -1:
			return -2 // the root, which no subtree counts
		case -2:
			sizes = append(sizes, 1)
			return len(sizes) - 1
		}
		sizes[parent]++
		return parent
	})
	if len(sizes) != a.rootKids {
		t.Fatalf("the root has %d subtrees, want %d", len(sizes), a.rootKids)
	}
	minS, maxS := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if maxS < 2*minS {
		t.Fatalf("subtrees too balanced for UTS: %v", sizes)
	}
}

// TestParallelMatchesChecksumXOR runs one small tree under each baseline
// policy at 2x2, and eight tree shapes (seeds 1-8) at the benchmark's two
// shapes, 2x1 and 1x2, where the tree moves between workers only as halves
// of a bag.
func TestParallelMatchesChecksumXOR(t *testing.T) {
	small := []*App{New(4, 6, 100_000, 5)} // keep the runtime run small
	var seeds []*App
	for seed := int64(1); seed <= 8; seed++ {
		seeds = append(seeds, New(16, 8, 100_000, seed))
	}
	for _, c := range []struct {
		cl     topology.Cluster
		policy sched.Kind
		trees  []*App
	}{
		{topology.Cluster{Places: 2, WorkersPerPlace: 2}, sched.DistWS, small},
		{topology.Cluster{Places: 2, WorkersPerPlace: 2}, sched.RandomWS, small},
		{topology.Cluster{Places: 2, WorkersPerPlace: 2}, sched.LifelineWS, small},
		{topology.Cluster{Places: 2, WorkersPerPlace: 1}, sched.DistWS, seeds},
		{topology.Cluster{Places: 1, WorkersPerPlace: 2}, sched.DistWS, seeds},
	} {
		rt, err := core.New(core.Config{Cluster: c.cl, Policy: c.policy, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range c.trees {
			got, err := a.Parallel(rt)
			if err != nil {
				t.Fatalf("%dx%d %v seed %d: %v", c.cl.Places, c.cl.WorkersPerPlace, c.policy, a.seed, err)
			}
			if want := a.ChecksumXOR(); got != want {
				t.Fatalf("%dx%d %v seed %d: parallel %x != reference %x",
					c.cl.Places, c.cl.WorkersPerPlace, c.policy, a.seed, got, want)
			}
		}
		rt.Shutdown()
	}
}

// TestParallelCountsOneTaskPerNode pins the task count the benchmark's
// work_per_s divides by: a node visited inside a bag still counts as one
// executed task, the root's included (the root activity visits it).
func TestParallelCountsOneTaskPerNode(t *testing.T) {
	a := New(16, 8, 100_000, 1)
	rt, err := core.New(core.Config{
		Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 1},
		Policy:  sched.DistWS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	before := rt.Metrics()
	if _, err := a.Parallel(rt); err != nil {
		t.Fatal(err)
	}
	after := rt.Metrics()
	if got, want := after.TasksExecuted-before.TasksExecuted, int64(a.Count()); got != want {
		t.Fatalf("one Parallel call executed %d tasks, want %d (one per node)", got, want)
	}
	if got, want := after.TasksSpawned-before.TasksSpawned, int64(a.Count()); got != want {
		t.Fatalf("one Parallel call spawned %d tasks, want %d (one per node)", got, want)
	}
}

func TestParallelRejectsCappedTree(t *testing.T) {
	a := New(4, 8, 10, 5) // cap guaranteed hit
	rt, err := core.New(core.Config{
		Cluster: topology.Cluster{Places: 1, WorkersPerPlace: 1},
		Policy:  sched.DistWS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if _, err := a.Parallel(rt); err == nil {
		t.Fatalf("capped tree should be rejected for parallel runs")
	}
}

func TestTraceShape(t *testing.T) {
	a := small()
	g, err := a.Trace(16)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != a.Count() {
		t.Fatalf("trace has %d tasks, tree has %d nodes", g.NumTasks(), a.Count())
	}
	if len(g.Roots) != 1 {
		t.Fatalf("UTS has one root, got %d", len(g.Roots))
	}
	if f := g.FlexibleFraction(); f != 1 {
		t.Fatalf("all UTS tasks are flexible, got fraction %v", f)
	}
}

func TestTraceRunsUnderUTSBaselines(t *testing.T) {
	g, err := small().Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = 4, 2
	for _, policy := range []sched.Kind{sched.DistWS, sched.RandomWS, sched.LifelineWS} {
		r, err := sim.Run(g, cl, policy, sim.Options{Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if r.Counters.TasksExecuted != int64(g.NumTasks()) {
			t.Fatalf("%v executed %d of %d", policy, r.Counters.TasksExecuted, g.NumTasks())
		}
		if r.Counters.TasksMigrated == 0 {
			t.Fatalf("%v moved no work on a single-root UTS tree", policy)
		}
	}
}
