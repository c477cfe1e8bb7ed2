// Package dag extends the task model beyond fork-join Finish scopes to
// dependency DAGs with dataflow-aware scheduling, following John,
// Milthorpe & Strazdins' distributed work stealing in a task-based
// dataflow runtime (arXiv:2211.00838). Tasks declare the data blocks
// they read and write (the same block-id namespace as
// task.Locality.Blocks); dependencies are derived from the dataflow —
// read-after-write, write-after-write and write-after-read in program
// order — plus any explicit control edges. A per-run Tracker releases a
// task into the scheduler only when its last dependency completes, and a
// block Directory records which places hold each block after its
// producer runs, so placement and stealing can weigh resident-input
// bytes against migration cost (see Policy and BestPlace).
//
// The package is runtime-agnostic: internal/sim replays a Graph in
// virtual time with the exact topology.Network.TransferNS cost model,
// and Execute (exec.go) drives the real goroutine runtime
// (internal/core) using measured payload sizes.
package dag

import (
	"fmt"
	"sort"
	"strings"
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
	// Inputs are the block ids the task reads. Each input whose producer
	// is another task adds a dependency edge.
	Inputs []uint64
	// Outputs are the block ids the task writes. Writing a block makes
	// this task the producer for subsequent readers and orders it after
	// the block's previous writer and readers.
	Outputs []uint64
	// Deps are explicit extra dependencies (task ids), for control edges
	// the dataflow does not capture. Most graphs leave this nil.
	Deps []int
}

// Graph is a complete dataflow program.
type Graph struct {
	// Name labels the workload ("cholesky", "lu", "pipeline").
	Name string
	// Tasks holds every task; Tasks[i].ID == i. Dependencies are derived
	// from block dataflow in slice order (the program order).
	Tasks []Task
	// BlockBytes gives each block's payload size, the unit of the
	// data-movement accounting. Blocks referenced by a task but absent
	// here are rejected by Validate.
	BlockBytes map[uint64]int
	// Seed records where each initially-materialized input block is
	// resident before any task runs (e.g. the block-cyclic owner of a
	// matrix tile). Blocks first written by a task need no seed entry.
	Seed map[uint64]int
	// SeqNS optionally records the modelled sequential execution time.
	// Zero means "sum of task costs".
	SeqNS int64
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

// Sequential returns the single-worker time: SeqNS when recorded, else
// the total work.
func (g *Graph) Sequential() int64 {
	if g.SeqNS > 0 {
		return g.SeqNS
	}
	return g.TotalWorkNS()
}

// InputBytes returns the total payload of t's input blocks.
func (g *Graph) InputBytes(t int) int {
	var sum int
	for _, b := range g.Tasks[t].Inputs {
		sum += g.BlockBytes[b]
	}
	return sum
}

// CycleError reports a dependency cycle: the explicit Deps edges closed
// a loop the program-order dataflow cannot produce on its own. Match
// with errors.As.
type CycleError struct {
	// Tasks are the ids left unreleasable once every acyclic task has
	// been peeled away (every member is on or downstream of a cycle).
	Tasks []int
}

// Error implements error.
func (e *CycleError) Error() string {
	ids := make([]string, 0, len(e.Tasks))
	for i, t := range e.Tasks {
		if i == 8 {
			ids = append(ids, "...")
			break
		}
		ids = append(ids, fmt.Sprintf("%d", t))
	}
	return fmt.Sprintf("dag: dependency cycle among %d task(s): %s",
		len(e.Tasks), strings.Join(ids, " "))
}

// Validate checks structural invariants — ids match indices, costs are
// non-negative, every referenced block has a size, explicit deps are in
// range — and rejects cyclic graphs with a *CycleError. Graphs whose
// edges come only from block dataflow are acyclic by construction
// (edges always point forward in program order); explicit Deps can
// close a loop, which this catches.
func (g *Graph) Validate() error {
	_, err := g.validate(false)
	return err
}

// validate is Validate for a caller about to run g: with schedule set
// it also returns the derived Schedule, so the run does not derive the
// edge lists a second time. Only an explicit dep on a later task can
// close a cycle (every other edge points forward in program order), so
// a graph without one passes the cycle check unexamined and, schedule
// unset, costs no derivation at all — which is what keeps callers in
// other packages (Validate, then NewSchedule) at one derivation per run.
func (g *Graph) validate(schedule bool) (*Schedule, error) {
	later := false // some explicit dep names a later task
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.ID != i {
			return nil, fmt.Errorf("dag: task at index %d has ID %d", i, t.ID)
		}
		if t.CostNS < 0 {
			return nil, fmt.Errorf("dag: task %d (%s) has negative cost %d", i, t.Label, t.CostNS)
		}
		for _, b := range t.Inputs {
			if _, ok := g.BlockBytes[b]; !ok {
				return nil, fmt.Errorf("dag: task %d (%s) reads block %#x with no size", i, t.Label, b)
			}
		}
		for _, b := range t.Outputs {
			if _, ok := g.BlockBytes[b]; !ok {
				return nil, fmt.Errorf("dag: task %d (%s) writes block %#x with no size", i, t.Label, b)
			}
		}
		for _, d := range t.Deps {
			if d < 0 || d >= len(g.Tasks) {
				return nil, fmt.Errorf("dag: task %d (%s) depends on out-of-range task %d", i, t.Label, d)
			}
			if d == i {
				return nil, fmt.Errorf("dag: task %d (%s) depends on itself", i, t.Label)
			}
			if d > i {
				later = true
			}
		}
	}
	if !later && !schedule {
		return nil, nil
	}
	s := NewSchedule(g)
	if !later {
		return s, nil
	}
	// Kahn's algorithm: peel zero-in-degree tasks; anything left sits on
	// or behind a cycle.
	indeg := append([]int(nil), s.InDegree...)
	queue := make([]int, 0, len(g.Tasks))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	released := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		released++
		for _, m := range s.Dependents[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if released != len(g.Tasks) {
		var stuck []int
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, i)
			}
		}
		return nil, &CycleError{Tasks: stuck}
	}
	return s, nil
}

// Schedule is the derived dependency structure of a Graph: the edge
// lists a run needs, computed once and shared read-only across runs.
type Schedule struct {
	// Dependents[i] lists the tasks with an edge from i (sorted, deduped).
	Dependents [][]int
	// InDegree[i] is the number of distinct predecessors of task i.
	InDegree []int
}

// NewSchedule derives the dependency edges of g: for every block, its
// last writer precedes later readers (RAW) and its readers and previous
// writer precede the next writer (WAR, WAW), all in program order;
// explicit Deps edges are added on top. Parallel edges between the same
// task pair collapse to one.
func NewSchedule(g *Graph) *Schedule {
	n := len(g.Tasks)
	preds := make([][]int, n)
	lastWriter := make(map[uint64]int, len(g.BlockBytes))
	readers := make(map[uint64][]int, len(g.BlockBytes))
	for i := range g.Tasks {
		t := &g.Tasks[i]
		for _, b := range t.Inputs {
			if w, ok := lastWriter[b]; ok && w != i {
				preds[i] = append(preds[i], w) // RAW
			}
			readers[b] = append(readers[b], i)
		}
		for _, b := range t.Outputs {
			if w, ok := lastWriter[b]; ok && w != i {
				preds[i] = append(preds[i], w) // WAW
			}
			for _, r := range readers[b] {
				if r != i {
					preds[i] = append(preds[i], r) // WAR
				}
			}
			lastWriter[b] = i
			delete(readers, b)
		}
		for _, d := range t.Deps {
			if d != i && d >= 0 && d < n {
				preds[i] = append(preds[i], d)
			}
		}
	}
	s := &Schedule{
		Dependents: make([][]int, n),
		InDegree:   make([]int, n),
	}
	for i, ps := range preds {
		sort.Ints(ps)
		prev := -1
		for _, p := range ps {
			if p == prev {
				continue
			}
			prev = p
			s.Dependents[p] = append(s.Dependents[p], i)
			s.InDegree[i]++
		}
	}
	return s
}

// Tracker is the per-run readiness state: a mutable in-degree vector
// over a shared Schedule. Not safe for concurrent use; each run owns
// one (the simulator's event loop is single-threaded, and Execute's
// completing workers call it under the run's lock).
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
		indeg:  append([]int(nil), s.InDegree...),
		nTasks: len(s.InDegree),
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
	for _, m := range tr.s.Dependents[id] {
		tr.indeg[m]--
		if tr.indeg[m] == 0 {
			dst = append(dst, m)
		}
	}
	return dst
}

// Done reports whether every task has completed.
func (tr *Tracker) Done() bool { return tr.nDone == tr.nTasks }
