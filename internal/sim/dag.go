package sim

import (
	"fmt"

	"distws/internal/dag"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/topology"
	"distws/internal/trace"
)

// dagState is the engine's dataflow mode: the run's dag.Flow (release,
// placement, residency), owned by the single-goroutine event loop, and
// what the simulator prices placement with.
type dagState struct {
	flow *dag.Flow
	// avgCostNS is the mean task cost, the unit converting a place's
	// queue depth into an expected-wait estimate for placement scoring.
	avgCostNS int64
	// relBuf is reusable scratch for released ids.
	relBuf []int
}

// RunDAG simulates dataflow graph g on cluster cl: tasks are released
// into the policy's scheduler as their dependencies complete, placed by
// pol (locality-blind owner-computes homes, or data-aware scoring), and
// charged the transfer cost of their non-resident inputs. Thieves take
// the oldest queued task under either pol. Result.DAG is the run's
// release and residency account. Like Run, the same (graph, cluster,
// policy, options) always produces the same result.
func RunDAG(g *dag.Graph, cl topology.Cluster, policy sched.Kind, pol dag.Policy, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if !sched.Valid(policy) {
		return nil, fmt.Errorf("sim: invalid policy %v", policy)
	}
	if !opts.Deque.Valid() {
		return nil, fmt.Errorf("sim: invalid deque kind %v", opts.Deque)
	}
	if !pol.Valid() {
		return nil, fmt.Errorf("sim: invalid dag policy %v", pol)
	}
	opts = opts.withDefaults()
	if err := opts.Fault.Validate(cl.Places); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	ds := &dagState{flow: dag.NewFlow(g, cl.Places, pol)}
	if n := g.NumTasks(); n > 0 {
		ds.avgCostNS = g.TotalWorkNS() / int64(n)
	}
	ds.avgCostNS = max(ds.avgCostNS, 1)
	return newEngine(dagTrace(g, ds.flow), cl, policy, opts, ds).run()
}

// dagTrace projects a dataflow graph onto the trace representation the
// engine executes. Every task is locality-flexible (eligible for shared
// deques and remote steals) and childless — release order comes from the
// flow, not parent spawns — and carries no migration payload: all data
// movement is the flow's fetch accounting. Roots stay empty for the same
// reason.
func dagTrace(g *dag.Graph, f *dag.Flow) *trace.Graph {
	tg := &trace.Graph{
		Name:  g.Name,
		Tasks: make([]trace.Task, len(g.Tasks)),
		SeqNS: g.TotalWorkNS(),
	}
	for i := range g.Tasks {
		tg.Tasks[i] = trace.Task{
			ID:       i,
			Flexible: true,
			Home:     f.Home(i),
			CostNS:   g.Tasks[i].CostNS,
		}
	}
	return tg
}

// Backlog and Transfer are the simulator's placement cost (dag.Cost): the
// expected queueing delay behind a place's running and queued tasks, and
// the network's modelled transfer time.
func (e *engine) Backlog(p int) int64 {
	pl := e.places[p]
	if pl.Down() {
		// Never placeable; handleSpawn re-homes if everything scores this
		// badly.
		return 1 << 62
	}
	return int64(pl.running+pl.queued) * e.dag.avgCostNS / int64(e.cl.WorkersPerPlace)
}

func (e *engine) Transfer(bytes int) int64 { return e.cl.Net.TransferNS(bytes) }

// dagRelease homes and spawns newly released tasks. from/fromW are the
// completing place and worker (-1 for the initial ready set); a task
// homed at the completing worker's own place lands help-first in its
// private deque, exactly like a fork-join child spawn.
func (e *engine) dagRelease(ids []int, from, fromW int) {
	for _, r := range ids {
		home := e.dag.flow.Place(r, e)
		e.record(home, 0, obs.KindDAGRelease, int32(r), int32(home), 0)
		e.events.Push(e.now, event{kind: evSpawn, taskID: r, home: home, from: from, fromW: fromW})
	}
}

// dagComplete is the handleDone hook: the finished task's outputs become
// resident at the executing place, and every dependent this completion
// releases is spawned.
func (e *engine) dagComplete(id int, w *simWorker) {
	ds := e.dag
	ds.relBuf = ds.flow.Complete(id, w.place.id, ds.relBuf[:0])
	e.dagRelease(ds.relBuf, w.place.id, w.id)
}

// dagFetch is the start() hook: input blocks not resident at the
// executing place are fetched — one message and a payload transfer each,
// and the place keeps the replica — before the task's cost is charged.
func (e *engine) dagFetch(id int, w *simWorker) int64 {
	p := w.place
	hits, misses, bytes, fetchNS := e.dag.flow.Fetch(id, p.id, e)
	if hits > 0 {
		e.record(p.id, w.local, obs.KindDAGResidentHit, int32(id), hits, 0)
	}
	if misses > 0 {
		e.tally.Messages += int64(misses)
		e.tally.BytesTransferred += bytes
		e.record(p.id, w.local, obs.KindDAGResidentMiss, int32(id), misses, fetchNS)
	}
	return fetchNS
}
