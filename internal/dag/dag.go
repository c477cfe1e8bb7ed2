// Package dag extends the task model beyond fork-join Finish scopes to
// dependency DAGs with dataflow-aware scheduling, following John,
// Milthorpe & Strazdins' distributed work stealing in a task-based
// dataflow runtime (arXiv:2211.00838). Tasks declare the data blocks
// they read and write; dependencies are derived from the dataflow —
// read-after-write, write-after-write and write-after-read in program
// order. A per-run Tracker releases a task into the scheduler only when
// its last dependency completes, and a block Directory records which
// places hold each block after its producer runs, so placement can weigh
// resident-input bytes against migration cost (see Policy and BestPlace).
//
// The package is runtime-agnostic. A run's release, placement and
// residency are one Flow, which two engines drive: internal/sim replays a
// Graph in virtual time with the exact topology.Network.TransferNS cost
// model, and Execute (exec.go) drives the real goroutine runtime
// (internal/core) using measured payload sizes.
package dag

import (
	"fmt"
	"sync"
)

// Task is one node of a dataflow graph.
type Task struct {
	// ID is the task's index in Graph.Tasks.
	ID int
	// Label names the task for traces and debugging ("potrf(3)", ...).
	Label string
	// CostNS is the modelled single-worker execution time (simulator).
	CostNS int64
	// Home is the task's declared home place — where an owner-computes
	// decomposition would run it. Locality-blind placement uses it
	// verbatim; data-aware placement treats it as a tie-break preference.
	Home int
	// Inputs are the indices of the blocks the task reads. Each input
	// whose producer is another task adds a dependency edge.
	Inputs []int
	// Outputs are the indices of the blocks the task writes. Writing a
	// block makes this task the producer for subsequent readers and
	// orders it after the block's previous writer and readers.
	Outputs []int
}

// NoSeed is the Graph.Seed entry of a block resident nowhere before any
// task runs: one a task writes first, or a constant materialized
// wherever it is needed.
const NoSeed = -1

// Graph is a complete dataflow program. Its blocks are the dense indices
// 0..len(BlockBytes)-1, which tasks name and every per-block slice is
// indexed by.
type Graph struct {
	// Name labels the workload ("cholesky", "lu", "pipeline").
	Name string
	// Tasks holds every task; Tasks[i].ID == i. Dependencies are derived
	// from block dataflow in slice order (the program order).
	Tasks []Task
	// BlockBytes gives each block's payload size, the unit of the
	// data-movement accounting; its length is the block count.
	BlockBytes []int
	// Seed records where each block is resident before any task runs
	// (e.g. the block-cyclic owner of a matrix tile), or NoSeed. It is
	// nil, when nothing is seeded, or as long as BlockBytes.
	Seed []int

	schedOnce sync.Once
	sched     *Schedule
}

// AddBlock appends a block of bytes seeded at seed (a place, or NoSeed)
// and returns its index. Seed must hold an entry per block so far.
func (g *Graph) AddBlock(bytes, seed int) int {
	g.BlockBytes = append(g.BlockBytes, bytes)
	g.Seed = append(g.Seed, seed)
	return len(g.BlockBytes) - 1
}

// NumTasks returns the task count.
func (g *Graph) NumTasks() int { return len(g.Tasks) }

// TotalWorkNS sums all task costs.
func (g *Graph) TotalWorkNS() int64 {
	var sum int64
	for i := range g.Tasks {
		sum += g.Tasks[i].CostNS
	}
	return sum
}

// InputBytes returns the total payload of t's input blocks.
func (g *Graph) InputBytes(t int) int {
	var sum int
	for _, b := range g.Tasks[t].Inputs {
		sum += g.BlockBytes[b]
	}
	return sum
}

// Validate checks structural invariants: ids match indices, costs and
// block sizes are non-negative, seeds are places or NoSeed, and every
// block a task names exists. It needs no cycle check: every edge comes
// from block dataflow and points from an earlier task to a later one in
// program order, so every graph is acyclic.
func (g *Graph) Validate() error {
	nb := len(g.BlockBytes)
	for b, sz := range g.BlockBytes {
		if sz < 0 {
			return fmt.Errorf("dag: block %d has negative size %d", b, sz)
		}
	}
	if g.Seed != nil && len(g.Seed) != nb {
		return fmt.Errorf("dag: %d seeds for %d blocks", len(g.Seed), nb)
	}
	for b, p := range g.Seed {
		if p < NoSeed {
			return fmt.Errorf("dag: block %d seeded at place %d", b, p)
		}
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.ID != i {
			return fmt.Errorf("dag: task at index %d has ID %d", i, t.ID)
		}
		if t.CostNS < 0 {
			return fmt.Errorf("dag: task %d (%s) has negative cost %d", i, t.Label, t.CostNS)
		}
		for _, b := range t.Inputs {
			if b < 0 || b >= nb {
				return fmt.Errorf("dag: task %d (%s) reads block %d of %d", i, t.Label, b, nb)
			}
		}
		for _, b := range t.Outputs {
			if b < 0 || b >= nb {
				return fmt.Errorf("dag: task %d (%s) writes block %d of %d", i, t.Label, b, nb)
			}
		}
	}
	return nil
}

// Schedule returns g's dependency structure, derived by NewSchedule on
// the first call and shared, read-only, by every later run: the runs of
// one graph derive it once. g must be valid, and once this has been
// called its tasks must not change nor g be copied.
func (g *Graph) Schedule() *Schedule {
	g.schedOnce.Do(func() { g.sched = NewSchedule(g) })
	return g.sched
}

// Schedule is the derived dependency structure of a Graph in compressed
// sparse row form: the dependents of every task in one array, in task
// order, and the offsets that bound each task's run of it.
type Schedule struct {
	start    []int // task i's dependents are deps[start[i]:start[i+1]]
	deps     []int
	inDegree []int
}

// Dependents returns the tasks with an edge from task i, ascending and
// without duplicates. The slice is s's own; callers must not modify it.
func (s *Schedule) Dependents(i int) []int { return s.deps[s.start[i]:s.start[i+1]:s.start[i+1]] }

// InDegree returns the number of distinct predecessors of task i.
func (s *Schedule) InDegree(i int) int { return s.inDegree[i] }

// NewSchedule derives the dependency edges of g: for every block, its
// last writer precedes later readers (RAW) and its readers and previous
// writer precede the next writer (WAR, WAW), all in program order.
// Parallel edges between the same task pair collapse to one. g must be
// valid. Each call derives the edges afresh; runs share g.Schedule().
//
// Tasks are visited in program order, so each task's predecessors are
// found, deduplicated by a per-task stamp, and stored contiguously; the
// dependents array is then filled by visiting the tasks in order again,
// which leaves each task's dependents ascending with no sort.
func NewSchedule(g *Graph) *Schedule {
	n, nb := len(g.Tasks), len(g.BlockBytes)
	var reads int
	for i := range g.Tasks {
		reads += len(g.Tasks[i].Inputs)
	}
	// Per block: its last writer plus one (0 for none), and the head of
	// its list of readers since that write, threaded through next (one
	// entry per read, reader[e] the reading task), plus one (0 for none).
	lastWriter := make([]int, nb)
	head := make([]int, nb)
	next := make([]int, reads+1)
	reader := make([]int, reads+1)
	// stamp[p] == i+1 once p is a predecessor of task i.
	stamp := make([]int, n)
	predStart := make([]int, n+1)
	preds := make([]int, 0, reads+n)
	outDegree := make([]int, n+1)
	add := func(i, p int) {
		if p != i && stamp[p] != i+1 {
			stamp[p] = i + 1
			preds = append(preds, p)
			outDegree[p+1]++
		}
	}
	e := 0
	for i := range g.Tasks {
		t := &g.Tasks[i]
		for _, b := range t.Inputs {
			if w := lastWriter[b]; w != 0 {
				add(i, w-1) // RAW
			}
			e++
			reader[e], next[e], head[b] = i, head[b], e
		}
		for _, b := range t.Outputs {
			if w := lastWriter[b]; w != 0 {
				add(i, w-1) // WAW
			}
			for r := head[b]; r != 0; r = next[r] {
				add(i, reader[r]) // WAR
			}
			lastWriter[b] = i + 1
			head[b] = 0
		}
		predStart[i+1] = len(preds)
	}
	s := &Schedule{start: outDegree, deps: make([]int, len(preds)), inDegree: make([]int, n)}
	for p := 0; p < n; p++ {
		s.start[p+1] += s.start[p]
	}
	fill := stamp // reused: the next free slot of each task's dependents
	copy(fill, s.start[:n])
	for i := 0; i < n; i++ {
		s.inDegree[i] = predStart[i+1] - predStart[i]
		for _, p := range preds[predStart[i]:predStart[i+1]] {
			s.deps[fill[p]] = i
			fill[p]++
		}
	}
	return s
}

// Tracker is the per-run readiness state: a mutable in-degree vector
// over a shared Schedule. Not safe for concurrent use; each run's Flow
// owns one.
type Tracker struct {
	s      *Schedule
	indeg  []int
	nDone  int
	nTasks int
}

// NewTracker returns a fresh readiness tracker over s.
func NewTracker(s *Schedule) *Tracker {
	return &Tracker{
		s:      s,
		indeg:  append([]int(nil), s.inDegree...),
		nTasks: len(s.inDegree),
	}
}

// Ready appends the initially-released tasks (in-degree zero, in id
// order) to dst and returns the extended slice.
func (tr *Tracker) Ready(dst []int) []int {
	for i, d := range tr.indeg {
		if d == 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// Complete marks task id done and appends every dependent this releases
// (in id order) to dst, returning the extended slice.
func (tr *Tracker) Complete(id int, dst []int) []int {
	tr.nDone++
	for _, m := range tr.s.Dependents(id) {
		tr.indeg[m]--
		if tr.indeg[m] == 0 {
			dst = append(dst, m)
		}
	}
	return dst
}

// Done reports whether every task has completed.
func (tr *Tracker) Done() bool { return tr.nDone == tr.nTasks }
