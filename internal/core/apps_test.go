package core_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"distws/internal/apps"
	"distws/internal/apps/suite"
	"distws/internal/core"
	"distws/internal/deque"
	"distws/internal/sched"
	"distws/internal/topology"
)

// Exactly-once above the relaxed queue: the benchmark's four fine-grained
// apps on 2x2 under deque.KindRelaxed, oversubscribed so takers are
// descheduled mid-take. A lost task shows as a checksum mismatch or a Run
// that never returns, a task run twice as a mismatch or as more executed
// than spawned.
func TestRelaxedRunsFineAppsExactlyOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for seed := int64(1); seed <= 20; seed++ {
		rt, err := core.New(core.Config{
			Cluster:  topology.Cluster{Places: 2, WorkersPerPlace: 2},
			Policy:   sched.DistWS,
			Deque:    deque.KindRelaxed,
			Seed:     seed,
			IdlePoll: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A lost task hangs its Finish; the panic dumps every goroutine.
		hang := time.AfterFunc(time.Minute, func() {
			panic(fmt.Sprintf("seed %d: Run did not return: %v", seed, rt.Metrics()))
		})
		for _, name := range []string{"uts", "turingring", "quicksort", "kmeans"} {
			a, err := suite.ByName(name, suite.Small, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Parallel(rt)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if want := apps.ParallelReference(a); got != want {
				t.Fatalf("%s seed %d: checksum %x, want %x", name, seed, got, want)
			}
		}
		hang.Stop()
		if m := rt.Metrics(); m.TasksExecuted != m.TasksSpawned {
			t.Fatalf("seed %d: executed %d tasks of %d spawned", seed, m.TasksExecuted, m.TasksSpawned)
		}
		rt.Shutdown()
	}
}
