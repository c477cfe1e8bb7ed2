package suite

import (
	"testing"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/sched"
	"distws/internal/topology"
)

func TestPaperSuiteShape(t *testing.T) {
	apps := Paper(Small, 1)
	if len(apps) != 7 {
		t.Fatalf("paper suite has %d apps, want 7", len(apps))
	}
	want := []string{"quicksort", "turingring", "kmeans", "agglom", "dmg", "dmr", "nbody"}
	for i, a := range apps {
		if a.Name() != want[i] {
			t.Fatalf("app %d = %q, want %q", i, a.Name(), want[i])
		}
	}
}

func TestMicroSuiteShape(t *testing.T) {
	apps := Micro(1)
	if len(apps) != 5 {
		t.Fatalf("micro suite has %d apps, want 5", len(apps))
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if seen[a.Name()] {
			t.Fatalf("duplicate micro app %q", a.Name())
		}
		seen[a.Name()] = true
	}
}

func TestByNameResolvesEverything(t *testing.T) {
	names := append(Names(), "uts", "mergesort", "skyline", "montecarlo-pi", "matchain", "randomaccess")
	for _, n := range names {
		a, err := ByName(n, Small, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if a.Name() != n {
			t.Fatalf("ByName(%q) returned %q", n, a.Name())
		}
	}
	if _, err := ByName("nope", Small, 1); err == nil {
		t.Fatalf("unknown name should error")
	}
}

func TestScaleGrowsWorkloads(t *testing.T) {
	small := Paper(Small, 1)
	medium := Paper(Medium, 1)
	for i := range small {
		gs, err := small[i].Trace(2)
		if err != nil {
			t.Fatalf("%s small trace: %v", small[i].Name(), err)
		}
		_ = medium[i] // medium traces are exercised in the expt benchmarks
		if gs.NumTasks() == 0 {
			t.Fatalf("%s produced an empty trace", small[i].Name())
		}
	}
}

func TestUTSInstanceBounded(t *testing.T) {
	u := UTS(1)
	n := u.Count()
	if n < 1000 || n >= u.MaxNodes {
		t.Fatalf("UTS default tree size %d out of range [1000, %d)", n, u.MaxNodes)
	}
}

// Every app a -mode runtime run can name must reproduce its own reference
// on real goroutines. uts is the one whose reference is not Sequential():
// its parallel visit order is free, so it folds order-independently.
func TestParallelMatchesReference(t *testing.T) {
	all := append(Paper(Small, 1), Micro(1)...)
	all = append(all, UTS(1))
	for _, app := range all {
		t.Run(app.Name(), func(t *testing.T) {
			rt, err := core.New(core.Config{
				Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
				Policy:  sched.DistWS,
				Seed:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			got, err := app.Parallel(rt)
			if err != nil {
				t.Fatal(err)
			}
			if want := apps.ParallelReference(app); got != want {
				t.Fatalf("parallel %x != reference %x", got, want)
			}
		})
	}
}
