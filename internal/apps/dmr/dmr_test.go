package dmr

import (
	"testing"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/geom"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func small() *App { return New(900, 23) }

func TestSequentialDeterministic(t *testing.T) {
	if small().Sequential() != small().Sequential() {
		t.Fatalf("sequential checksum not deterministic")
	}
}

func TestRefinementImprovesQuality(t *testing.T) {
	a := small()
	regs := a.partition(a.gen())
	// Pick the densest region and verify refinement reduces the number of
	// bad triangles (excluding border-blocked ones it cannot fix).
	ri, best := 0, 0
	for i, pts := range regs {
		if len(pts) > best {
			ri, best = i, len(pts)
		}
	}
	st := a.refineRegion(ri, regs[ri])
	if st.inserts == 0 {
		t.Fatalf("refinement made no inserts on a clustered region")
	}
	if st.alive <= 2*st.pts {
		t.Fatalf("refined mesh should have grown: %d triangles for %d pts", st.alive, st.pts)
	}
}

func TestRefineRegionBounded(t *testing.T) {
	a := small()
	regs := a.partition(a.gen())
	for i, pts := range regs {
		st := a.refineRegion(i, pts)
		if st.inserts > a.CapFactor*len(pts)+64 {
			t.Fatalf("region %d exceeded the insert cap: %d", i, st.inserts)
		}
		if len(st.cavities) != st.inserts {
			t.Fatalf("cavity record (%d) disagrees with inserts (%d)", len(st.cavities), st.inserts)
		}
	}
}

func TestIsBad(t *testing.T) {
	a := small()
	m := geom.NewMesh(0, 0, 1, 1)
	// The initial super-triangle is never "bad".
	if a.isBad(m, 0) {
		t.Fatalf("super-triangle flagged bad")
	}
	// A skinny interior triangle is bad.
	m.Insert(geom.Point{X: 0.5, Y: 0.5})
	m.Insert(geom.Point{X: 0.52, Y: 0.5})
	m.Insert(geom.Point{X: 0.51, Y: 0.9})
	found := false
	for ti := range m.Tris {
		if m.Tris[ti].Alive && !m.HasSuperVertex(ti) && a.isBad(m, ti) {
			found = true
		}
	}
	if !found {
		t.Fatalf("skinny triangle not flagged bad")
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
	a := small()
	g, err := a.Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() <= a.RootGrid {
		t.Fatalf("trace has no cavity chains: %d tasks", g.NumTasks())
	}
	if len(g.Roots) != a.RootGrid {
		t.Fatalf("roots = %d, want %d", len(g.Roots), a.RootGrid)
	}
	mean := apps.MeanFlexibleCostNS(g)
	if mean < 800_000_000 || mean > 1_000_000_000 {
		t.Fatalf("mean flexible granularity = %d, want ~899ms", mean)
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
