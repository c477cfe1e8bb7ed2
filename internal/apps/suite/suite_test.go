package suite

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"distws/internal/apps"
	"distws/internal/apps/linalg"
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
	apps := Micro()
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
	names := append(Names(), "uts")
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

// TestScaleGrowsWorkloads checks that Medium is a bigger workload than
// Small for every paper app: its trace has more tasks and more total work.
func TestScaleGrowsWorkloads(t *testing.T) {
	small, medium := Paper(Small, 1), Paper(Medium, 1)
	for i := range small {
		gs, err := small[i].Trace(2)
		if err != nil {
			t.Fatalf("%s small trace: %v", small[i].Name(), err)
		}
		gm, err := medium[i].Trace(2)
		if err != nil {
			t.Fatalf("%s medium trace: %v", medium[i].Name(), err)
		}
		if gm.NumTasks() <= gs.NumTasks() || gm.TotalWorkNS() <= gs.TotalWorkNS() {
			t.Errorf("%s: medium trace has %d tasks and %d ns of work, small %d and %d",
				small[i].Name(), gm.NumTasks(), gm.TotalWorkNS(), gs.NumTasks(), gs.TotalWorkNS())
		}
	}
}

// TestUTSInstanceBounded checks the §X tree is big enough to measure and
// under its node cap: Parallel refuses a tree the cap cut short.
func TestUTSInstanceBounded(t *testing.T) {
	u := UTS(1)
	if n := u.Count(); n < 1000 {
		t.Fatalf("UTS default tree has %d nodes, want at least 1000", n)
	}
	if got, want := parallel(t, u), u.ChecksumXOR(); got != want {
		t.Fatalf("parallel %#x, want %#x", got, want)
	}
}

// Every app a -mode runtime run can name must reproduce its own reference
// on real goroutines. uts is the one whose reference is not Sequential():
// its parallel visit order is free, so it folds order-independently.
func TestParallelMatchesReference(t *testing.T) {
	all := append(Paper(Small, 1), UTS(1))
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

// pinned is every paper app's and uts's Sequential checksum at Small
// scale, seed 1, as first computed before the apps shared their inputs
// across runs. amd64's: another architecture may fuse a multiply-add.
var pinned = map[string]uint64{
	"quicksort":  0xd30cdf22dad2bcda,
	"turingring": 0x204c13332f89b67c,
	"kmeans":     0x238adf4a9d86d8c,
	"agglom":     0xa365c370a270576,
	"dmg":        0xf1778ea61a99ebf3,
	"dmr":        0x1d279e088ee5e002,
	"nbody":      0x1c0b2ff9f1c53314,
	"uts":        0xaeda2fb8941887a2,
}

// TestRunsShareInput runs each app as a benchmark pass reuses it, on one
// App: Sequential, Parallel on a 2x1 DistWS runtime, then Sequential
// again. The App builds its run-invariant input on its first run and every
// later run reads it, so a run that changed it would move a later
// checksum. Then a fresh App runs Parallel on two runtimes at once: both
// runs race to build the input and then read it, which -race checks.
func TestRunsShareInput(t *testing.T) {
	for _, a := range append(Paper(Small, 1), UTS(1)) {
		t.Run(a.Name(), func(t *testing.T) {
			seq := pinned[a.Name()]
			if runtime.GOARCH != "amd64" {
				seq = mustByName(t, a.Name()).Sequential()
			}
			par := apps.ParallelReference(mustByName(t, a.Name()))
			if got := a.Sequential(); got != seq {
				t.Fatalf("first sequential %#x, want %#x", got, seq)
			}
			if got := parallel(t, a); got != par {
				t.Fatalf("parallel %#x, want %#x", got, par)
			}
			if got := a.Sequential(); got != seq {
				t.Fatalf("second sequential %#x, want %#x", got, seq)
			}
			fresh := mustByName(t, a.Name())
			var got [2]uint64
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = parallel(t, fresh)
				}()
			}
			wg.Wait()
			if got[0] != par || got[1] != par {
				t.Fatalf("concurrent parallel runs %#x, %#x, want %#x", got[0], got[1], par)
			}
		})
	}
}

func mustByName(t *testing.T, name string) apps.App {
	t.Helper()
	a, err := ByName(name, Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// parallel runs a.Parallel on a fresh 2x1 DistWS runtime. It may run on a
// goroutine other than the test's, so it reports a failure with Error.
func parallel(t *testing.T, a apps.App) uint64 {
	rt, err := core.New(core.Config{
		Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 1},
		Policy:  sched.DistWS,
		Seed:    1,
	})
	if err != nil {
		t.Error(err)
		return 0
	}
	defer rt.Shutdown()
	sum, err := a.Parallel(rt)
	if err != nil {
		t.Error(err)
	}
	return sum
}

// TestTracesArePure is what lets expt's Runner generate two place counts
// of one app at once: a trace (or dataflow graph) generator may not write
// to its receiver. Each runs at two place counts concurrently, twice, from
// one receiver; under -race a receiver write is a reported race, and the
// twin results must be deep-equal.
func TestTracesArePure(t *testing.T) {
	type generator struct {
		name  string
		graph func(places int) (any, error)
	}
	var gens []generator
	models := Micro()
	for _, a := range append(Paper(Small, 1), UTS(1)) {
		models = append(models, a)
	}
	for _, a := range models {
		gens = append(gens, generator{a.Name(), func(p int) (any, error) { return a.Trace(p) }})
	}
	for _, a := range linalg.Suite(1) {
		gens = append(gens, generator{a.Name(), func(p int) (any, error) { return a.Graph(p) }})
	}
	places := [2]int{4, 16}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			var out [4]any
			var errs [4]error
			var wg sync.WaitGroup
			for i := range out {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out[i], errs[i] = g.graph(places[i%2])
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("at %d places: %v", places[i%2], err)
				}
			}
			for i, p := range places {
				if !reflect.DeepEqual(out[i], out[i+2]) {
					t.Fatalf("two concurrent generations at %d places differ", p)
				}
			}
		})
	}
}
