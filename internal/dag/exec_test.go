package dag_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
		Cluster:  topology.Cluster{Places: places, WorkersPerPlace: workers},
		Policy:   sched.DistWS,
		Seed:     1,
		IdlePoll: 50 * time.Microsecond,
		Deque:    kind,
		Fault:    plan,
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
// write-after-read edges all occur, plus a few explicit deps on earlier
// tasks. Declared homes and seeds range over 8 places, so every smaller
// runtime exercises the wrap.
func randomGraph(seed int64, n int) *dag.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &dag.Graph{
		Name:       fmt.Sprintf("random-%d", seed),
		BlockBytes: map[uint64]int{},
		Seed:       map[uint64]int{},
	}
	for b := uint64(0); b < fuzzBlocks; b++ {
		g.BlockBytes[b] = 64 << rng.Intn(6)
		if rng.Intn(2) == 0 {
			g.Seed[b] = rng.Intn(8)
		}
	}
	blocks := func(k int) []uint64 {
		var bs []uint64
		for ; k > 0; k-- {
			bs = append(bs, uint64(rng.Intn(fuzzBlocks)))
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
			t.Deps = []int{rng.Intn(i)}
		}
		g.Tasks = append(g.Tasks, t)
	}
	return g
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
	for p, succs := range dag.NewSchedule(g).Dependents {
		for _, s := range succs {
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
		for _, s := range sch.Dependents[id] {
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

// TestExecuteSurvivesPlaceCrash: a place fail-stops twenty tasks in —
// the root's own place included — and its queued tasks are re-homed.
// Every kernel must still run exactly once and the result must equal
// the sequential replay.
func TestExecuteSurvivesPlaceCrash(t *testing.T) {
	for _, p := range []int{0, 1, 3} {
		for _, pol := range execPolicies {
			t.Run(fmt.Sprintf("place%d/%v", p, pol), func(t *testing.T) {
				plan := &fault.Plan{Crashes: []fault.Crash{{Place: p, AfterTasks: 20}}}
				rt := newExecRuntime(t, 4, 2, deque.KindMutex, plan)
				g := randomGraph(8, 600)
				o := newObserved(g)
				stats, err := executeWatched(t, rt, g, dag.ExecOptions{Policy: pol, Kernel: o.kernel})
				if err != nil {
					t.Fatal(err)
				}
				o.check(t, g)
				if stats.Released != int64(g.NumTasks()) {
					t.Errorf("released %d of %d tasks", stats.Released, g.NumTasks())
				}
				if lost := rt.Metrics().PlacesLost; lost != 1 {
					t.Errorf("PlacesLost = %d: the crash never fired, the test checked nothing", lost)
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
	g := &dag.Graph{Name: "wavefront", BlockBytes: map[uint64]int{}, Seed: map[uint64]int{}}
	id := func(i, j int) uint64 { return uint64(i*n + j) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.BlockBytes[id(i, j)] = 1024
			t := dag.Task{ID: i*n + j, Home: (i + j) % 8, Outputs: []uint64{id(i, j)}}
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

// BenchmarkExecuteOverhead runs empty kernels, so ns/task is the
// executor's whole cost per task: release, placement, spawn, directory
// accounting. It runs under the watchdog, which makes its one-iteration
// smoke in `make bench-smoke` a deadlock check as well.
func BenchmarkExecuteOverhead(b *testing.B) {
	g := wavefront(28) // 784 tasks
	for _, sh := range []shape{{2, 1}, {2, 2}} {
		b.Run(fmt.Sprintf("%dx%d", sh.places, sh.workers), func(b *testing.B) {
			rt := newExecRuntime(b, sh.places, sh.workers, deque.KindMutex, nil)
			opts := dag.ExecOptions{Policy: dag.PolicyDataAware, Kernel: func(*dag.Task) {}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := executeWatched(b, rt, g, opts)
				if err != nil || stats.Released != int64(g.NumTasks()) {
					b.Fatalf("Execute = %+v, %v", stats, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumTasks()), "ns/task")
		})
	}
}
