package sim

import (
	"testing"

	"distws/internal/dag"
	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/topology"
)

// pipelineGraph builds items independent chains of stages tasks each:
// task (i,s) reads the item's previous stage block and writes the next.
// Blind homes follow the stage owner (s mod places) — the worst case for
// data movement, since every item changes place at every stage.
func pipelineGraph(items, stages, places, blockBytes int, costNS int64) *dag.Graph {
	g := &dag.Graph{Name: "testpipe"}
	blk := func(i, s int) int { return i*(stages+1) + s }
	for i := 0; i < items; i++ {
		g.AddBlock(blockBytes, 0) // all inputs start at place 0
		for s := 1; s <= stages; s++ {
			g.AddBlock(blockBytes, dag.NoSeed)
		}
	}
	for s := 0; s < stages; s++ {
		for i := 0; i < items; i++ {
			g.Tasks = append(g.Tasks, dag.Task{
				ID:      len(g.Tasks),
				CostNS:  costNS,
				Home:    s % places,
				Inputs:  []int{blk(i, s)},
				Outputs: []int{blk(i, s+1)},
			})
		}
	}
	return g
}

func TestRunDAGCompletes(t *testing.T) {
	cl := topology.Laptop()
	g := pipelineGraph(8, 4, cl.Places, 1<<14, 50_000)
	res, err := RunDAG(g, cl, sched.DistWS, dag.PolicyBlind, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.NumTasks())
	c := res.Counters
	if c.TasksExecuted != n || c.TasksSpawned != n || res.DAG.Released != n {
		t.Fatalf("executed=%d spawned=%d released=%d, want all %d",
			c.TasksExecuted, c.TasksSpawned, res.DAG.Released, n)
	}
	if res.MakespanNS <= 0 || res.SequentialNS != g.TotalWorkNS() {
		t.Fatalf("makespan=%d sequential=%d", res.MakespanNS, res.SequentialNS)
	}
	// Fault-free, each task's inputs are accounted once: hit or miss.
	var inputs int64
	for i := range g.Tasks {
		inputs += int64(len(g.Tasks[i].Inputs))
	}
	if got := res.DAG.ResidentHits + res.DAG.ResidentMisses; got != inputs {
		t.Fatalf("%d residency lookups for %d inputs", got, inputs)
	}
}

func TestRunDAGDeterministic(t *testing.T) {
	cl := topology.Laptop()
	for _, pol := range []dag.Policy{dag.PolicyBlind, dag.PolicyDataAware} {
		g := pipelineGraph(8, 4, cl.Places, 1<<14, 50_000)
		a, err := RunDAG(g, cl, sched.DistWS, pol, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunDAG(g, cl, sched.DistWS, pol, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if a.MakespanNS != b.MakespanNS || a.Counters != b.Counters || a.DAG != b.DAG {
			t.Fatalf("%v: runs diverged: %v vs %v", pol, a, b)
		}
	}
}

func TestRunDAGDataAwareMovesFewerBytes(t *testing.T) {
	cl := topology.Laptop()
	g := pipelineGraph(16, 6, cl.Places, 1<<16, 20_000)
	blind, err := RunDAG(g, cl, sched.DistWS, dag.PolicyBlind, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := RunDAG(g, cl, sched.DistWS, dag.PolicyDataAware, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aware.DAG.FetchedBytes >= blind.DAG.FetchedBytes {
		t.Fatalf("data-aware fetched %d bytes, blind %d — expected a reduction",
			aware.DAG.FetchedBytes, blind.DAG.FetchedBytes)
	}
	if aware.MakespanNS > blind.MakespanNS {
		t.Fatalf("data-aware makespan %d > blind %d on a fetch-bound pipeline",
			aware.MakespanNS, blind.MakespanNS)
	}
}

func TestRunDAGRejectsInvalidPolicy(t *testing.T) {
	cl := topology.Laptop()
	g := pipelineGraph(2, 2, cl.Places, 1024, 1000)
	if _, err := RunDAG(g, cl, sched.DistWS, dag.Policy(9), Options{Seed: 1}); err == nil {
		t.Fatal("RunDAG accepted an invalid dag policy")
	}
}

// TestRunDAGSurvivesCrash pins that dependency release happens before
// the crash bookkeeping: a place dying mid-run re-homes its work and the
// dataflow still drains completely.
func TestRunDAGSurvivesCrash(t *testing.T) {
	cl := topology.Laptop()
	g := pipelineGraph(8, 4, cl.Places, 1<<14, 50_000)
	plan := &fault.Plan{Crashes: []fault.Crash{{Place: 1, AfterTasks: 3}}}
	res, err := RunDAG(g, cl, sched.DistWS, dag.PolicyDataAware, Options{Seed: 1, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.TasksExecuted != int64(g.NumTasks()) {
		t.Fatalf("executed %d of %d after crash", res.Counters.TasksExecuted, g.NumTasks())
	}
	if res.Counters.PlacesLost != 1 {
		t.Fatalf("PlacesLost = %d", res.Counters.PlacesLost)
	}
}

// TestRunDAGDequeKindParity pins that without LockContention the deque
// kind does not change a DAG run at all — the dag-parity gate's core
// invariant.
func TestRunDAGDequeKindParity(t *testing.T) {
	cl := topology.Laptop()
	var base *Result
	for _, k := range []deque.Kind{deque.KindMutex, deque.KindChaseLev, deque.KindRelaxed} {
		g := pipelineGraph(8, 4, cl.Places, 1<<14, 50_000)
		res, err := RunDAG(g, cl, sched.DistWS, dag.PolicyDataAware,
			Options{Seed: 1, Deque: k})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.MakespanNS != base.MakespanNS || res.Counters != base.Counters || res.DAG != base.DAG {
			t.Fatalf("deque kind %d diverged: %v vs %v", k, res, base)
		}
	}
}
