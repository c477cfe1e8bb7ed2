package dag_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"distws/internal/apps/linalg"
	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

// execDeadline bounds every Execute in this file. The largest graph here
// runs in tens of milliseconds, -race included; a run still going after
// this long is a deadlock, and the watchdog says where.
const execDeadline = 30 * time.Second

// newExecRuntime starts a places×workers runtime that the test's cleanup
// shuts down with a deadline, so a test that found a hang reports it
// instead of hanging again in Shutdown.
func newExecRuntime(tb testing.TB, places, workers int, kind deque.Kind, plan *fault.Plan) *core.Runtime {
	tb.Helper()
	rt, err := core.New(core.Config{
		Cluster: topology.Cluster{Places: places, WorkersPerPlace: workers},
		Policy:  sched.DistWS,
		Seed:    1,
		Deque:   kind,
		Fault:   plan,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.ShutdownContext(ctx); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
	})
	return rt
}

// watched runs fn under a watchdog: if it has not returned by
// execDeadline the test fails with a dump of every goroutine, which
// names the blocked one, instead of hanging until the suite's timeout.
func watched(tb testing.TB, what string, fn func()) {
	tb.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(execDeadline):
		buf := make([]byte, 1<<20)
		tb.Fatalf("%s still running after %v; goroutines:\n%s",
			what, execDeadline, buf[:runtime.Stack(buf, true)])
	}
}

// executeWatched is Execute under the watchdog.
func executeWatched(tb testing.TB, rt *core.Runtime, g *dag.Graph, opts dag.ExecOptions) (stats dag.ExecStats, err error) {
	tb.Helper()
	watched(tb, fmt.Sprintf("Execute(%q)", g.Name), func() { stats, err = dag.Execute(rt, g, opts) })
	return stats, err
}

const fuzzBlocks = 24

// randomGraph builds a seeded graph of n tasks over a pool of fuzzBlocks
// blocks small enough that read-after-write, write-after-write and
// write-after-read edges all occur, plus, in one task in ten, a read of
// a block an earlier task writes. Declared homes and seeds range over 8 places, so every smaller
// runtime exercises the wrap.
func randomGraph(seed int64, n int) *dag.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &dag.Graph{Name: fmt.Sprintf("random-%d", seed)}
	for b := 0; b < fuzzBlocks; b++ {
		size, at := 64<<rng.Intn(6), dag.NoSeed
		if rng.Intn(2) == 0 {
			at = rng.Intn(8)
		}
		g.AddBlock(size, at)
	}
	blocks := func(k int) []int {
		var bs []int
		for ; k > 0; k-- {
			bs = append(bs, rng.Intn(fuzzBlocks))
		}
		return bs
	}
	for i := 0; i < n; i++ {
		t := dag.Task{
			ID:      i,
			Label:   fmt.Sprintf("t%d", i),
			Home:    rng.Intn(8),
			Inputs:  blocks(rng.Intn(4)),
			Outputs: blocks(rng.Intn(3)),
		}
		if i > 0 && rng.Intn(10) == 0 {
			// One task in ten also reads a block an earlier task writes.
			if out := g.Tasks[rng.Intn(i)].Outputs; len(out) > 0 {
				t.Inputs = append(t.Inputs, out[rng.Intn(len(out))])
			}
		}
		g.Tasks = append(g.Tasks, t)
	}
	return g
}

// TestScheduleMatchesBruteForce checks NewSchedule's compressed rows
// against the dataflow rules stated pair by pair: j precedes i when some
// block b that i reads or writes was last written before i by j (RAW,
// WAW), or when i writes b and j read it with no write of b from j up to
// i (WAR). The oracle sees one edge per pair however many blocks imply
// it, and none from a task to itself; every edge points forward in
// program order, which is why a graph needs no cycle check. Each task's
// dependents must be strictly ascending, so without duplicates, and its
// in-degree the oracle's count of its predecessors.
func TestScheduleMatchesBruteForce(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(1); seed <= 20; seed++ {
		g := randomGraph(seed, 300)
		n := len(g.Tasks)
		reads := make([][fuzzBlocks]bool, n)
		writes := make([][fuzzBlocks]bool, n)
		// written[b][k] counts the tasks before k that write b.
		var written [fuzzBlocks][]int
		for i, tk := range g.Tasks {
			for _, b := range tk.Inputs {
				reads[i][b] = true
			}
			for _, b := range tk.Outputs {
				writes[i][b] = true
			}
		}
		for b := range written {
			written[b] = make([]int, n+1)
			for k := 0; k < n; k++ {
				written[b][k+1] = written[b][k]
				if writes[k][b] {
					written[b][k+1]++
				}
			}
		}
		wantDeps, wantIn := make([][]int, n), make([]int, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				edge := false
				for b := 0; b < fuzzBlocks; b++ {
					if writes[j][b] && written[b][i]-written[b][j+1] == 0 {
						if reads[i][b] {
							edge = true
							kinds["RAW"]++
						}
						if writes[i][b] {
							edge = true
							kinds["WAW"]++
						}
					}
					if writes[i][b] && reads[j][b] && written[b][i]-written[b][j] == 0 {
						edge = true
						kinds["WAR"]++
					}
				}
				if edge {
					wantDeps[j] = append(wantDeps[j], i)
					wantIn[i]++
				}
			}
		}
		got := dag.NewSchedule(g)
		for j := 0; j < n; j++ {
			ds := got.Dependents(j)
			for k, i := range ds {
				if i <= j {
					t.Fatalf("seed %d: edge %d -> %d does not point forward", seed, j, i)
				}
				if k > 0 && i <= ds[k-1] {
					t.Fatalf("seed %d: Dependents(%d) = %v, not strictly ascending", seed, j, ds)
				}
			}
			if !slices.Equal(ds, wantDeps[j]) {
				t.Fatalf("seed %d: Dependents(%d) = %v, oracle %v", seed, j, ds, wantDeps[j])
			}
			if got.InDegree(j) != wantIn[j] {
				t.Fatalf("seed %d: InDegree(%d) = %d, oracle %d", seed, j, got.InDegree(j), wantIn[j])
			}
		}
	}
	for _, k := range []string{"RAW", "WAW", "WAR"} {
		if kinds[k] == 0 {
			t.Errorf("no %s dependency in any graph: the oracle checked nothing of it", k)
		}
	}
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fold is the fuzz kernel's computation: task id and the current input
// cells, folded into the output cells. It takes no lock and touches no
// atomic — the executor's dependency edges are all that order two tasks
// on one cell, so under -race this is the oracle for Execute's
// producer-to-consumer publish edge.
func fold(cells []uint64, t *dag.Task) {
	h := mix(uint64(t.ID) + 1)
	for _, b := range t.Inputs {
		h = mix(h ^ cells[b])
	}
	for j, b := range t.Outputs {
		cells[b] = mix(h + uint64(j))
	}
}

// replay is the sequential reference: every kernel in program order.
func replay(g *dag.Graph) []uint64 {
	cells := make([]uint64, fuzzBlocks)
	for i := range g.Tasks {
		fold(cells, &g.Tasks[i])
	}
	return cells
}

// observed is what one run's kernels record, each task in slots only it
// writes: plain stores, so the recording adds no synchronisation that
// could hide a missing edge from the race detector. Timestamps are
// monotonic clock readings, comparable across goroutines.
type observed struct {
	cells      []uint64
	ran        []int
	began, end []time.Time
}

func newObserved(g *dag.Graph) *observed {
	n := len(g.Tasks)
	return &observed{
		cells: make([]uint64, fuzzBlocks),
		ran:   make([]int, n),
		began: make([]time.Time, n),
		end:   make([]time.Time, n),
	}
}

func (o *observed) kernel(t *dag.Task) {
	o.began[t.ID] = time.Now()
	o.ran[t.ID]++
	fold(o.cells, t)
	o.end[t.ID] = time.Now()
}

// check asserts the run computed the sequential result, ran each task
// exactly once, and started no task before all its predecessors ended.
func (o *observed) check(t *testing.T, g *dag.Graph) {
	t.Helper()
	for id, n := range o.ran {
		if n != 1 {
			t.Errorf("task %d ran %d times", id, n)
		}
	}
	for b, want := range replay(g) {
		if o.cells[b] != want {
			t.Errorf("cell %d = %#x, sequential replay has %#x", b, o.cells[b], want)
		}
	}
	sch := dag.NewSchedule(g)
	for p := range g.Tasks {
		for _, s := range sch.Dependents(p) {
			if o.began[s].Before(o.end[p]) {
				t.Errorf("task %d began %v before its predecessor %d ended",
					s, o.end[p].Sub(o.began[s]), p)
			}
		}
	}
}

func totalInputs(g *dag.Graph) int64 {
	var n int64
	for i := range g.Tasks {
		n += int64(len(g.Tasks[i].Inputs))
	}
	return n
}

type shape struct{ places, workers int }

var execShapes = []shape{{1, 1}, {2, 1}, {2, 2}, {4, 2}}

var execPolicies = []dag.Policy{dag.PolicyBlind, dag.PolicyDataAware}

// TestExecuteRandomGraphs is the executor's conformance test: random
// dataflow on every shape, policy and deque kind must equal the
// program-order replay, with the accounting identities intact.
func TestExecuteRandomGraphs(t *testing.T) {
	for _, sh := range execShapes {
		for _, pol := range execPolicies {
			for _, kind := range deque.Kinds() {
				t.Run(fmt.Sprintf("%dx%d/%v/%v", sh.places, sh.workers, pol, kind), func(t *testing.T) {
					rt := newExecRuntime(t, sh.places, sh.workers, kind, nil)
					for seed := int64(1); seed <= 4; seed++ {
						g := randomGraph(seed, 300)
						o := newObserved(g)
						stats, err := executeWatched(t, rt, g, dag.ExecOptions{Policy: pol, Kernel: o.kernel})
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						o.check(t, g)
						if stats.Released != int64(g.NumTasks()) {
							t.Errorf("seed %d: released %d of %d tasks", seed, stats.Released, g.NumTasks())
						}
						if got, want := stats.ResidentHits+stats.ResidentMisses, totalInputs(g); got != want {
							t.Errorf("seed %d: %d residency lookups for %d inputs", seed, got, want)
						}
						if m := stats.ResidentMisses; stats.FetchedBytes < 64*m || stats.FetchedBytes > 2048*m {
							t.Errorf("seed %d: %d misses moved %d bytes, not one 64-2048 B block each",
								seed, m, stats.FetchedBytes)
						}
						if sh.places == 1 && (stats.ResidentMisses != 0 || stats.FetchedBytes != 0) {
							t.Errorf("seed %d: one place fetched %d blocks (%d bytes)",
								seed, stats.ResidentMisses, stats.FetchedBytes)
						}
					}
				})
			}
		}
	}
}

// TestExecuteKernelPanic: a panicking kernel used to block Execute
// forever (its completion was never reported). It must instead fail the
// run with the panic value, release nothing downstream of the failed
// task, and leave the runtime fit for another run.
func TestExecuteKernelPanic(t *testing.T) {
	g := randomGraph(5, 200)
	const victim = 40
	sch := dag.NewSchedule(g)
	downstream := map[int]bool{}
	for frontier := []int{victim}; len(frontier) > 0; {
		id := frontier[0]
		frontier = frontier[1:]
		for _, s := range sch.Dependents(id) {
			if !downstream[s] {
				downstream[s] = true
				frontier = append(frontier, s)
			}
		}
	}
	if len(downstream) == 0 {
		t.Fatal("victim has no dependents; pick another")
	}

	rt := newExecRuntime(t, 2, 2, deque.KindMutex, nil)
	o := newObserved(g)
	_, err := executeWatched(t, rt, g, dag.ExecOptions{Policy: dag.PolicyDataAware, Kernel: func(tk *dag.Task) {
		if tk.ID == victim {
			panic("kernel exploded on t40")
		}
		o.kernel(tk)
	}})
	if err == nil || !strings.Contains(err.Error(), "kernel exploded on t40") {
		t.Fatalf("Execute = %v, want an error carrying the panic value", err)
	}
	for id := range downstream {
		if o.ran[id] != 0 {
			t.Errorf("task %d ran although its ancestor %d failed", id, victim)
		}
	}

	o = newObserved(g)
	if _, err := executeWatched(t, rt, g, dag.ExecOptions{Policy: dag.PolicyDataAware, Kernel: o.kernel}); err != nil {
		t.Fatalf("second Execute on the same runtime: %v", err)
	}
	o.check(t, g)
}

// TestExecuteShutdownMidRun: shutting the runtime down under a running
// Execute used to leak the worker parked on the completion channel, so
// ShutdownContext never returned. Both calls must come back, Execute
// with core.ErrShutdown. Under -race this also checks the error path's
// read of the stats against stragglers still completing.
func TestExecuteShutdownMidRun(t *testing.T) {
	g := randomGraph(6, 4000)
	rt := newExecRuntime(t, 2, 2, deque.KindMutex, nil)
	var once sync.Once
	running := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := dag.Execute(rt, g, dag.ExecOptions{Policy: dag.PolicyDataAware, Kernel: func(*dag.Task) {
			once.Do(func() { close(running) })
			time.Sleep(50 * time.Microsecond)
		}})
		errc <- err
	}()
	<-running
	time.Sleep(5 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.ShutdownContext(ctx); err != nil {
		t.Fatalf("ShutdownContext during Execute: %v", err)
	}
	var err error
	watched(t, "Execute on a shut-down runtime", func() { err = <-errc })
	if !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("Execute = %v, want core.ErrShutdown", err)
	}
}

// TestExecuteConcurrentOnOneGraph: two runs share one *Graph and one
// runtime. Execute only reads the graph, so under -race neither run may
// be seen writing it.
func TestExecuteConcurrentOnOneGraph(t *testing.T) {
	g := randomGraph(7, 300)
	rt := newExecRuntime(t, 2, 2, deque.KindMutex, nil)
	obs := []*observed{newObserved(g), newObserved(g)}
	errs := make([]error, len(obs))
	var wg sync.WaitGroup
	for i := range obs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = dag.Execute(rt, g, dag.ExecOptions{Policy: dag.PolicyDataAware, Kernel: obs[i].kernel})
		}()
	}
	watched(t, "two concurrent Executes", wg.Wait)
	for i, o := range obs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		o.check(t, g)
	}
}

// TestExecuteSurvivesPlaceCrash: a place fail-stops mid-run — the root's
// own place included — and its queued tasks are re-homed. Every kernel
// must still run exactly once and the result must equal the sequential
// replay. The crash is timed, 250 µs after the runtime starts, and
// task 20's kernel holds its worker until it has fired, so the run cannot
// finish first. (A task quota, AfterTasks, could go unmet: data-aware
// placement may give the place fewer tasks than any quota.)
func TestExecuteSurvivesPlaceCrash(t *testing.T) {
	const holder = 20
	for _, p := range []int{0, 1, 3} {
		for _, pol := range execPolicies {
			t.Run(fmt.Sprintf("place%d/%v", p, pol), func(t *testing.T) {
				g := randomGraph(8, 600)
				plan := &fault.Plan{Crashes: []fault.Crash{{Place: p, AtNS: int64(250 * time.Microsecond)}}}
				rt := newExecRuntime(t, 4, 2, deque.KindMutex, plan)
				o := newObserved(g)
				stats, err := executeWatched(t, rt, g, dag.ExecOptions{Policy: pol, Kernel: func(tk *dag.Task) {
					for tk.ID == holder && rt.Metrics().PlacesLost == 0 {
						time.Sleep(20 * time.Microsecond)
					}
					o.kernel(tk)
				}})
				if err != nil {
					t.Fatal(err)
				}
				o.check(t, g)
				if stats.Released != int64(g.NumTasks()) {
					t.Errorf("released %d of %d tasks", stats.Released, g.NumTasks())
				}
				if lost := rt.Metrics().PlacesLost; lost != 1 {
					t.Errorf("PlacesLost = %d, want 1", lost)
				}
			})
		}
	}
}

// appsAtTestScale is the linalg suite's structure with far fewer flops.
func appsAtTestScale() []linalg.App {
	return []linalg.App{
		linalg.NewCholesky(128, 32, 1),
		linalg.NewLU(96, 32, 1),
		linalg.NewPipeline(8, 4, 256, 1),
	}
}

// parallelWatched is app.Parallel (which calls Execute) under the
// watchdog.
func parallelWatched(tb testing.TB, app linalg.App, rt *core.Runtime, pol dag.Policy) (sum uint64, stats dag.ExecStats) {
	tb.Helper()
	var err error
	watched(tb, app.Name()+".Parallel", func() { sum, stats, err = app.Parallel(rt, pol) })
	if err != nil {
		tb.Fatalf("%s under %v: %v", app.Name(), pol, err)
	}
	return sum, stats
}

// TestExecuteOnOneWorker: with a coordinator parked on a worker, a 1×1
// runtime had nobody left to run a kernel and Execute deadlocked. The
// only worker is now the root's, helping from inside Finish.
func TestExecuteOnOneWorker(t *testing.T) {
	rt := newExecRuntime(t, 1, 1, deque.KindMutex, nil)
	for _, app := range appsAtTestScale() {
		for _, pol := range execPolicies {
			got, _ := parallelWatched(t, app, rt, pol)
			if want := app.Sequential(); got != want {
				t.Errorf("%s under %v on 1×1: checksum %#x, sequential %#x", app.Name(), pol, got, want)
			}
		}
	}
}

// TestDataAwareFetchesLessThanBlind is the placement policy's evidence
// on the real runtime. The pipeline's blind homes move an item's buffer
// at every stage and data-aware placement keeps it where it is: on 4×2
// data-aware fetches about a tenth of blind's bytes (0.06–0.13 over 150
// samples, -race and a contended box included), so a quarter is
// asserted. Nothing is asserted on 2×1. Both places execute tasks there now (with a
// parked coordinator one place ran everything and the two policies read
// the same 0.52 MB a run), but blind's own bytes are bimodal on two
// workers: when the worker that finished stage s steals stage s+1 back
// from the place it just sent it to, the buffer never moves and blind
// fetches a twentieth of what it does when tasks run at their homes, so
// the ratio ranges 0.01–0.30 with the box's load. Cholesky's and LU's
// margins are thinner still. Those are logged.
func TestDataAwareFetchesLessThanBlind(t *testing.T) {
	const runs = 5
	apps := []linalg.App{
		linalg.NewPipeline(64, 8, 2048, 1),
		linalg.NewCholesky(256, 32, 1),
		linalg.NewLU(192, 32, 1),
	}
	for _, sh := range []shape{{2, 1}, {4, 2}} {
		rt := newExecRuntime(t, sh.places, sh.workers, deque.KindMutex, nil)
		for _, app := range apps {
			fetched := map[dag.Policy]int64{}
			for _, pol := range execPolicies {
				for i := 0; i < runs; i++ {
					_, stats := parallelWatched(t, app, rt, pol)
					fetched[pol] += stats.FetchedBytes
				}
			}
			blind, aware := fetched[dag.PolicyBlind], fetched[dag.PolicyDataAware]
			t.Logf("%s on %dx%d over %d runs: blind fetched %d B, data-aware %d B",
				app.Name(), sh.places, sh.workers, runs, blind, aware)
			if app.Name() == "pipeline" && sh.places == 4 && aware > blind/4 {
				t.Errorf("pipeline on 4x2: data-aware fetched %d B, more than a quarter of blind's %d B", aware, blind)
			}
		}
	}
}

// wavefront is an n×n grid where cell (i,j) reads its upper and left
// neighbours' blocks and writes its own: anti-diagonals run in
// parallel, each completion releases at most two tasks.
func wavefront(n int) *dag.Graph {
	g := &dag.Graph{Name: "wavefront"}
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.AddBlock(1024, dag.NoSeed)
			t := dag.Task{ID: i*n + j, Home: (i + j) % 8, Outputs: []int{id(i, j)}}
			if i > 0 {
				t.Inputs = append(t.Inputs, id(i-1, j))
			}
			if j > 0 {
				t.Inputs = append(t.Inputs, id(i, j-1))
			}
			g.Tasks = append(g.Tasks, t)
		}
	}
	return g
}

// TestExecuteAllocCeiling pins the allocations of one Execute of the
// 784-task wavefront at 2×1 with empty kernels, the graph's schedule
// already derived (testing.AllocsPerRun's warm-up run derives it, and
// runs at GOMAXPROCS 1, so the count is deterministic). The measured
// 2 369 are about three per task, the closure and the task record each
// spawn makes, plus the run's per-task and per-place slices, its flow and
// its directory; the ceiling sits under 10 % above them. A per-block map
// or slice back in the directory, or per-task slices back in the
// schedule, add at least one allocation per block or task, 784, and fail
// it: with both, before blocks were dense, a run made 7 715.
func TestExecuteAllocCeiling(t *testing.T) {
	const ceiling = 2600
	g := wavefront(28)
	rt := newExecRuntime(t, 2, 1, deque.KindMutex, nil)
	opts := dag.ExecOptions{Policy: dag.PolicyDataAware, Kernel: func(*dag.Task) {}}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := dag.Execute(rt, g, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Execute of %d tasks (ceiling %d)", allocs, g.NumTasks(), ceiling)
	if allocs > ceiling {
		t.Errorf("%.0f allocations per Execute, ceiling %d: the executor allocates per block or per run again", allocs, ceiling)
	}
}

// BenchmarkExecuteOverhead runs empty kernels, so ns/task is the
// executor's whole cost per task: release, placement, spawn, directory
// accounting. The reused case runs one graph throughout, so its schedule
// is derived once, by the first run; the fresh case builds the graph anew
// before each run (off the clock), so every run also derives it, as the
// first run of any graph does. It runs under the watchdog, which makes
// its one-iteration smoke in `make bench-smoke` a deadlock check as well.
func BenchmarkExecuteOverhead(b *testing.B) {
	const n = 28 // 784 tasks
	for _, sh := range []shape{{2, 1}, {2, 2}} {
		for _, fresh := range []bool{false, true} {
			name := fmt.Sprintf("%dx%d/reused", sh.places, sh.workers)
			if fresh {
				name = fmt.Sprintf("%dx%d/fresh", sh.places, sh.workers)
			}
			b.Run(name, func(b *testing.B) {
				rt := newExecRuntime(b, sh.places, sh.workers, deque.KindMutex, nil)
				opts := dag.ExecOptions{Policy: dag.PolicyDataAware, Kernel: func(*dag.Task) {}}
				g := wavefront(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if fresh {
						b.StopTimer()
						g = wavefront(n)
						b.StartTimer()
					}
					stats, err := executeWatched(b, rt, g, opts)
					if err != nil || stats.Released != int64(g.NumTasks()) {
						b.Fatalf("Execute = %+v, %v", stats, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumTasks()), "ns/task")
			})
		}
	}
}

// scheduleSink keeps BenchmarkNewSchedule's derivations from being
// optimized away.
var scheduleSink *dag.Schedule

// BenchmarkNewSchedule derives the dependency edges of each of the
// suite's three graphs, built for 2 places: what a run pays the first
// time it meets a graph. With -benchmem it shows the derivation's
// allocations, a handful per graph whatever its size.
func BenchmarkNewSchedule(b *testing.B) {
	for _, a := range linalg.Suite(1) {
		g, err := a.Graph(2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scheduleSink = dag.NewSchedule(g)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumTasks()), "ns/task")
		})
	}
}

// TestScheduleSharedAcrossRuns: two concurrent Executes and a sim.RunDAG
// on one Graph, the first runs of it, derive its schedule once between
// them. Every caller of Graph.Schedule, the runs' and two more racing
// them, gets the one *Schedule, and it equals a fresh NewSchedule. Under
// -race this is the check that the first use is published safely.
func TestScheduleSharedAcrossRuns(t *testing.T) {
	g := randomGraph(9, 300)
	rt := newExecRuntime(t, 2, 2, deque.KindMutex, nil)
	obs := []*observed{newObserved(g), newObserved(g)}
	errs := make([]error, len(obs)+1)
	scheds := make([]*dag.Schedule, 2)
	var res *sim.Result
	var wg sync.WaitGroup
	for i := range obs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = dag.Execute(rt, g, dag.ExecOptions{Policy: dag.PolicyDataAware, Kernel: obs[i].kernel})
		}()
	}
	for i := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scheds[i] = g.Schedule()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, errs[len(obs)] = sim.RunDAG(g, topology.Laptop(), sched.DistWS, dag.PolicyDataAware, sim.Options{Seed: 1})
	}()
	watched(t, "two Executes and a RunDAG on one graph", wg.Wait)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for _, o := range obs {
		o.check(t, g)
	}
	if res.DAG.Released != int64(g.NumTasks()) {
		t.Errorf("RunDAG released %d of %d tasks", res.DAG.Released, g.NumTasks())
	}
	shared := g.Schedule()
	if scheds[0] != shared || scheds[1] != shared {
		t.Fatalf("Graph.Schedule returned %p, %p and %p: derived more than once", scheds[0], scheds[1], shared)
	}
	fresh := dag.NewSchedule(g)
	if fresh == shared {
		t.Fatal("NewSchedule returned the graph's cached schedule")
	}
	for i := range g.Tasks {
		if !slices.Equal(shared.Dependents(i), fresh.Dependents(i)) || shared.InDegree(i) != fresh.InDegree(i) {
			t.Fatalf("task %d: shared schedule has dependents %v, in-degree %d; fresh has %v, %d",
				i, shared.Dependents(i), shared.InDegree(i), fresh.Dependents(i), fresh.InDegree(i))
		}
	}
}
