package linalg

import (
	"runtime"
	"testing"

	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/sched"
	"distws/internal/topology"
)

// small returns the suite at test scale: the same structure, far fewer
// flops.
func small(seed int64) []App {
	return []App{
		NewCholesky(128, 32, seed),
		NewLU(96, 32, seed),
		NewPipeline(8, 4, 256, seed),
	}
}

func newTestRuntime(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.Config{
		Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
		Policy:  sched.DistWS,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestParallelMatchesSequential pins the bit-exact checksum contract:
// the dependency edges totally order all writes per tile, so any legal
// schedule produces the identical floating-point result.
func TestParallelMatchesSequential(t *testing.T) {
	for _, app := range small(1) {
		app := app
		for _, pol := range []dag.Policy{dag.PolicyBlind, dag.PolicyDataAware} {
			pol := pol
			t.Run(app.Name()+"/"+pol.String(), func(t *testing.T) {
				want := app.Sequential()
				rt := newTestRuntime(t)
				defer rt.Shutdown()
				got, stats, err := app.Parallel(rt, pol)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("parallel checksum %#x != sequential %#x", got, want)
				}
				g, err := app.Graph(rt.Places())
				if err != nil {
					t.Fatal(err)
				}
				if stats.Released != int64(g.NumTasks()) {
					t.Fatalf("released %d of %d tasks", stats.Released, g.NumTasks())
				}
				if stats.ResidentHits+stats.ResidentMisses == 0 {
					t.Fatal("no residency lookups recorded")
				}
			})
		}
	}
}

// TestSequentialChecksumIsPinned pins every Sequential checksum, at suite
// and test scale and two seeds: a tile kernel must keep each output's
// exact floating-point sequence, so any rewrite of one leaves these
// bit-identical. The values are amd64's; the compiler may fuse a
// multiply-subtract into one rounding on other architectures.
func TestSequentialChecksumIsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("checksums pinned on amd64, where no multiply-subtract is fused")
	}
	// want[seed][scale][app]: scale 0 is Suite, 1 is small.
	want := map[int64][2][3]uint64{
		1: {
			{0x8651a364072d40cd, 0xad6ff5b1704194fe, 0x5aa3ba7d3654b8b3},
			{0x20c8ba5ad197eb9c, 0x8f0d9b6c52941b6a, 0xc45cb1b88fd22fee},
		},
		2: {
			{0x8618217633b2b647, 0x43b11ab1b837c78c, 0x827a048e45306114},
			{0x38632b740d9fd561, 0xd7148f49a1420bdb, 0x50996079c4037329},
		},
	}
	for seed, w := range want {
		for scale, suite := range [][]App{Suite(seed), small(seed)} {
			for i, app := range suite {
				if got := app.Sequential(); got != w[scale][i] {
					t.Errorf("%s seed %d %s scale: checksum %#x, want %#x",
						app.Name(), seed, []string{"suite", "test"}[scale], got, w[scale][i])
				}
			}
		}
	}
}

// TestGraphsValidate checks the benchmark-scale graphs are well-formed
// at several cluster sizes, including more places than any task's home.
func TestGraphsValidate(t *testing.T) {
	for _, app := range Suite(1) {
		for _, places := range []int{1, 4, 16} {
			g, err := app.Graph(places)
			if err != nil {
				t.Fatalf("%s at %d places: %v", app.Name(), places, err)
			}
			if g.NumTasks() == 0 || g.TotalWorkNS() <= 0 {
				t.Fatalf("%s: empty graph", app.Name())
			}
		}
	}
}

// TestGraphShapes pins the task counts implied by the tiled algorithms.
func TestGraphShapes(t *testing.T) {
	// Cholesky over T tiles: T potrf + T(T-1)/2 trsm + T(T-1)/2 syrk +
	// T(T-1)(T-2)/6 gemm.
	g, err := NewCholesky(128, 32, 1).Graph(4) // T = 4
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 6 + 6 + 4; g.NumTasks() != want {
		t.Fatalf("cholesky T=4: %d tasks, want %d", g.NumTasks(), want)
	}
	// LU over T tiles: T getrf + T(T-1) trsm + T(T-1)(2T-1)/6 gemm.
	g, err = NewLU(96, 32, 1).Graph(4) // T = 3
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 + 6 + 5; g.NumTasks() != want {
		t.Fatalf("lu T=3: %d tasks, want %d", g.NumTasks(), want)
	}
	g, err = NewPipeline(8, 4, 256, 1).Graph(4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * 4; g.NumTasks() != want {
		t.Fatalf("pipeline: %d tasks, want %d", g.NumTasks(), want)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("ByName accepted an unknown app")
	}
}

// TestSequentialDeterministic pins that reference checksums depend only
// on the seed.
func TestSequentialDeterministic(t *testing.T) {
	for _, name := range Names() {
		a1, _ := ByName(name, 7)
		a2, _ := ByName(name, 7)
		if c1, c2 := a1.Sequential(), a2.Sequential(); c1 != c2 {
			t.Fatalf("%s: sequential checksums diverged: %#x vs %#x", name, c1, c2)
		}
	}
}
