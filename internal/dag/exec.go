package dag

import (
	"fmt"
	"sync"

	"distws/internal/core"
	"distws/internal/task"
)

// ExecOptions configures Execute.
type ExecOptions struct {
	// Policy selects locality-blind (declared homes) or data-aware
	// (directory-scored) placement.
	Policy Policy
	// Kernel runs one task's computation. It executes on a runtime
	// worker, possibly away from the task's home place; per-task data
	// races are excluded by the dependency graph, not by Kernel.
	Kernel func(t *Task)
}

// Execute runs dataflow graph g on the real goroutine runtime. Nothing
// waits for completions: the Finish body launches the initially ready
// tasks and returns, so Finish's help-first wait makes the root's worker
// a kernel worker like any other, and each task's activity, once its
// Kernel returns, releases its own dependents — under the run's lock it
// accounts its inputs' residency at the place it actually executed and
// completes itself in the run's Flow, which records its outputs there
// and releases and places its dependents; then, outside the lock, it
// spawns those tasks into the same finish scope. The lock covers only
// that bookkeeping, never a Kernel or a spawn.
//
// Kernels need no locking of their own. A task is released by whichever
// predecessor completes last, and every predecessor completed inside the
// lock before it: a producer's writes precede its unlock, which precedes
// the releasing worker's lock, which precedes that worker's spawn, whose
// deque hand-off (the deque's lock or atomics) precedes the consumer's
// Kernel.
//
// A Kernel that panics fails the run: its task never completes, so none
// of its dependents is released, the finish drains what is already in
// flight, and Execute returns an error carrying the panic value. A
// runtime shut down mid-run returns core.ErrShutdown.
//
// Placement under PolicyDataAware scores candidate places by the input
// bytes that would have to move there plus a backlog estimate
// (outstanding tasks × mean input payload) — the measured-bytes analogue
// of the simulator's TransferNS scoring.
func Execute(rt *core.Runtime, g *Graph, opts ExecOptions) (ExecStats, error) {
	if err := g.Validate(); err != nil {
		return ExecStats{}, err
	}
	if !opts.Policy.Valid() {
		return ExecStats{}, fmt.Errorf("dag: invalid policy %v", opts.Policy)
	}
	places := rt.Places()
	x := &execution{
		g:           g,
		opts:        opts,
		flow:        NewFlow(g, places, opts.Policy),
		inputBytes:  make([]int, len(g.Tasks)),
		meanBytes:   1,
		home:        make([]int, len(g.Tasks)),
		outstanding: make([]int64, places),
	}
	if n := len(g.Tasks); n > 0 {
		var total int64
		for i := range g.Tasks {
			x.inputBytes[i] = g.InputBytes(i)
			total += int64(x.inputBytes[i])
		}
		if m := total / int64(n); m > 1 {
			x.meanBytes = m
		}
	}

	err := rt.Run(func(c *core.Ctx) {
		c.Finish(func(fx *core.Ctx) {
			x.mu.Lock()
			ready := x.place(x.flow.Ready(nil))
			x.mu.Unlock()
			x.spawn(fx, ready)
		})
	})
	// Run can return (shutdown) while straggler activities are still
	// completing, so even the final read takes the lock.
	x.mu.Lock()
	stats, done := x.flow.Stats, x.flow.Done()
	x.mu.Unlock()
	if err != nil {
		return stats, fmt.Errorf("dag: executing %q: %w", g.Name, err)
	}
	if !done {
		return stats, fmt.Errorf("dag: %q finished with unreleased tasks", g.Name)
	}
	return stats, nil
}

// execution is the state of one Execute run. The first group is
// read-only once the run starts; mu guards the second.
type execution struct {
	g          *Graph
	opts       ExecOptions
	inputBytes []int // per-task input payload, summed once
	meanBytes  int64 // mean of inputBytes, at least 1: the backlog unit

	mu          sync.Mutex
	flow        *Flow
	outstanding []int64 // released, not yet completed, per chosen home
	// home[t] is the place t was released to. Written under mu by the
	// worker that releases t, which then spawns t from it; every later
	// reader is ordered after that spawn.
	home []int
}

// Backlog and Transfer are Execute's placement Cost, called under mu: a
// place's outstanding tasks at the mean input payload each, and measured
// bytes standing in for the simulator's modelled transfer time.
func (x *execution) Backlog(p int) int64      { return x.outstanding[p] * x.meanBytes }
func (x *execution) Transfer(bytes int) int64 { return int64(bytes) }

// place homes the released tasks ids and returns them. Caller holds mu.
func (x *execution) place(ids []int) []int {
	for _, t := range ids {
		h := x.flow.Place(t, x)
		x.home[t] = h
		x.outstanding[h]++
	}
	return ids
}

// spawn launches the already-homed tasks ids from c, in c's finish scope.
// Caller does not hold mu: a spawn takes the target deque's lock and may
// serve steal requests.
func (x *execution) spawn(c *core.Ctx, ids []int) {
	for _, id := range ids {
		t := &x.g.Tasks[id]
		c.AsyncLoc(x.home[id], task.Locality{
			Class:          task.Flexible,
			MigrationBytes: x.inputBytes[id],
		}, func(ac *core.Ctx) {
			if x.opts.Kernel != nil {
				x.opts.Kernel(t)
			}
			x.spawn(ac, x.complete(id, ac.Place()))
		})
	}
}

// complete is what a task's own worker does when its Kernel returns at
// place: account the inputs' residency there, complete the task in the
// flow, and home the dependents that releases, which it returns.
func (x *execution) complete(id, place int) []int {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.outstanding[x.home[id]]--
	x.flow.Fetch(id, place, x)
	return x.place(x.flow.Complete(id, place, nil))
}
