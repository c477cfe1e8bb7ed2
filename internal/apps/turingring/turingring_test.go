package turingring

import (
	"slices"
	"testing"
	"testing/quick"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func small() *App { return New(64, 6, 3) }

func TestSequentialDeterministic(t *testing.T) {
	if small().Sequential() != small().Sequential() {
		t.Fatalf("sequential checksum not deterministic")
	}
}

func TestPopulationsStayBounded(t *testing.T) {
	a := small()
	a.run(func(iter int, cur, next []Cell) {
		for i := range cur {
			next[i] = a.stepCell(cur, i, iter)
			if next[i].Prey < 0 || next[i].Pred < 0 {
				t.Fatalf("negative population at cell %d iter %d: %+v", i, iter, next[i])
			}
			if next[i].Prey > 200_000 || next[i].Pred > 200_000 {
				t.Fatalf("population blew up at cell %d iter %d: %+v", i, iter, next[i])
			}
		}
	})
}

func TestMigrationConservesAtQuietCells(t *testing.T) {
	// outflow direction must be ±1 and fractions within (0,1].
	a := small()
	c := Cell{Prey: 5000, Pred: 500}
	for i := 0; i < 32; i++ {
		pOut, dOut, dir := a.outflow(i, 1, c)
		if dir != 1 && dir != -1 {
			t.Fatalf("direction = %d", dir)
		}
		if pOut < 0 || pOut > c.Prey || dOut < 0 || dOut > c.Pred {
			t.Fatalf("outflow out of range: %v %v", pOut, dOut)
		}
	}
}

func TestBurstsCreateLargeLoadShifts(t *testing.T) {
	// Somewhere in the run a cell's body count must change by >10x in one
	// iteration — the imbalance the paper attributes to migration.
	a := New(128, 12, 5)
	sawBurst := false
	a.run(func(iter int, cur, next []Cell) {
		for i := range cur {
			next[i] = a.stepCell(cur, i, iter)
			before, after := bodies(cur[i])+1, bodies(next[i])+1
			if after > 10*before || before > 10*after {
				sawBurst = true
			}
		}
	})
	if !sawBurst {
		t.Fatalf("no order-of-magnitude load shift observed")
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
			t.Fatalf("%v: parallel checksum %x != sequential %x", policy, got, want)
		}
	}
}

func TestTraceValidAndShaped(t *testing.T) {
	a := small()
	g, err := a.Trace(4)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	// One outer + one inner task per cell-iteration plus one coordinator
	// per iteration.
	want := a.cells*a.iters*2 + a.iters
	if g.NumTasks() != want {
		t.Fatalf("NumTasks = %d, want %d", g.NumTasks(), want)
	}
	if len(g.Roots) != 1 {
		t.Fatalf("roots = %d, want the iteration-0 coordinator only", len(g.Roots))
	}
	// Half the tasks (the outers) are flexible.
	if f := g.FlexibleFraction(); f < 0.45 || f > 0.55 {
		t.Fatalf("flexible fraction = %v, want ~0.5", f)
	}
	mean := apps.MeanFlexibleCostNS(g)
	if mean < 1_700_000 || mean > 2_000_000 {
		t.Fatalf("mean flexible granularity = %d, want ~1.86ms", mean)
	}
}

func TestTraceRunsInSimulatorAllPolicies(t *testing.T) {
	g, err := small().Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = 4, 2
	for _, policy := range sched.Kinds() {
		r, err := sim.Run(g, cl, policy, sim.Options{Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if r.Counters.TasksExecuted != int64(g.NumTasks()) {
			t.Fatalf("%v executed %d of %d", policy, r.Counters.TasksExecuted, g.NumTasks())
		}
	}
}

// blockRange is the specification placeOf inverts: place p owns [lo, hi).
func blockRange(p, n, places int) (lo, hi int) {
	return p * n / places, (p + 1) * n / places
}

func TestPlaceOfBlockDistribution(t *testing.T) {
	// 100 over 4 places: 25 each.
	for p := 0; p < 4; p++ {
		lo, hi := blockRange(p, 100, 4)
		if hi-lo != 25 {
			t.Fatalf("place %d owns %d elements, want 25", p, hi-lo)
		}
		for i := lo; i < hi; i++ {
			if got := placeOf(i, 100, 4); got != p {
				t.Fatalf("placeOf(%d) = %d, want %d", i, got, p)
			}
		}
	}
}

func TestPlaceOfUnevenDistribution(t *testing.T) {
	owned := make([]int, 3)
	for i := 0; i < 10; i++ {
		owned[placeOf(i, 10, 3)]++
	}
	for p, n := range owned {
		if n != 3 && n != 4 {
			t.Fatalf("place %d owns %d of 10 elements over 3 places, want 3 or 4", p, n)
		}
	}
}

func TestPlaceOfPanics(t *testing.T) {
	for _, c := range [][3]int{{4, 4, 2}, {-1, 4, 2}, {0, -1, 2}, {0, 4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("placeOf%v: expected panic", c)
				}
			}()
			placeOf(c[0], c[1], c[2])
		}()
	}
}

// Property: every index belongs to exactly the place whose block range
// contains it, and the ranges partition [0, n).
func TestPlaceOfPartitionProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)%200 + 1
		places := int(pRaw)%16 + 1
		covered := 0
		for p := 0; p < places; p++ {
			lo, hi := blockRange(p, n, places)
			covered += hi - lo
			for i := lo; i < hi; i++ {
				if placeOf(i, n, places) != p {
					return false
				}
			}
		}
		return covered == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: block sizes differ by at most one element.
func TestPlaceOfBalanceProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)%500 + 1
		places := int(pRaw)%16 + 1
		owned := make([]int, places)
		for i := 0; i < n; i++ {
			owned[placeOf(i, n, places)]++
		}
		return slices.Max(owned)-slices.Min(owned) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
