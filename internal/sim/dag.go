package sim

import (
	"fmt"

	"distws/internal/dag"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/topology"
	"distws/internal/trace"
)

// dagState is the engine's dataflow mode: the graph's derived schedule,
// the per-run readiness tracker, and the block directory the data-aware
// policy scores against. All of it is owned by the single-goroutine
// event loop.
type dagState struct {
	g       *dag.Graph
	pol     dag.Policy
	sched   *dag.Schedule
	tracker *dag.Tracker
	dir     *dag.Directory
	// plan mirrors dir plus optimistic marks: when a released task is
	// assigned a home, its not-yet-resident inputs are recorded there
	// immediately, so siblings released in the same frontier co-locate
	// with the in-flight fetch instead of each pulling a private copy.
	// Placement scores against plan; the fetch accounting stays on dir.
	plan *dag.Directory
	// avgCostNS is the mean task cost, the unit converting a place's
	// queue depth into an expected-wait estimate for placement scoring.
	avgCostNS int64
	// transfer is the network's payload cost model, bound once so the
	// placement loop does not rebuild a closure per release.
	transfer func(bytes int) int64
	// relBuf and backlog are reusable scratch (released ids, per-place
	// backlog estimates); score caches one steal-scoring closure per
	// thief place.
	relBuf  []int
	backlog []int64
	score   []func(int) int64
}

// RunDAG simulates dataflow graph g on cluster cl: tasks are released
// into the policy's scheduler as their dependencies complete, and the
// block directory charges each task the transfer cost of its
// non-resident inputs. pol selects locality-blind (owner-computes
// homes, oldest-first steals) or data-aware placement and stealing.
// Like Run, the same (graph, cluster, policy, options) always produces
// the same result.
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

	sch := dag.NewSchedule(g)
	ds := &dagState{
		g:        g,
		pol:      pol,
		sched:    sch,
		tracker:  dag.NewTracker(sch),
		dir:      dag.NewDirectory(cl.Places),
		plan:     dag.NewDirectory(cl.Places),
		transfer: cl.Net.TransferNS,
		backlog:  make([]int64, cl.Places),
	}
	ds.dir.SeedFrom(g)
	ds.plan.SeedFrom(g)
	if n := g.NumTasks(); n > 0 {
		ds.avgCostNS = g.TotalWorkNS() / int64(n)
	}
	if ds.avgCostNS < 1 {
		ds.avgCostNS = 1
	}
	return newEngine(dagTrace(g, cl.Places), cl, policy, opts, ds).run()
}

// dagTrace projects a dataflow graph onto the trace representation the
// engine executes. Every task is locality-flexible (eligible for shared
// deques and remote steals) and childless — release order comes from the
// Tracker, not parent spawns — and carries no migration payload: all
// data movement is the directory's fetch accounting. Roots stay empty
// for the same reason.
func dagTrace(g *dag.Graph, places int) *trace.Graph {
	tg := &trace.Graph{
		Name:  g.Name,
		Tasks: make([]trace.Task, len(g.Tasks)),
		SeqNS: g.Sequential(),
	}
	for i := range g.Tasks {
		home := g.Tasks[i].Home % places
		if home < 0 {
			home += places
		}
		tg.Tasks[i] = trace.Task{
			ID:       i,
			Flexible: true,
			Home:     home,
			CostNS:   g.Tasks[i].CostNS,
		}
	}
	return tg
}

// dagRelease homes and spawns newly released tasks. from/fromW are the
// completing place and worker (-1 for the initial ready set); a task
// homed at the completing worker's own place lands help-first in its
// private deque, exactly like a fork-join child spawn.
func (e *engine) dagRelease(ids []int, from, fromW int) {
	for _, r := range ids {
		home := e.dagHome(r)
		e.ctrs.DAGTasksReleased.Add(1)
		e.record(home, 0, obs.KindDAGRelease, int32(r), int32(home), 0)
		e.events.Push(e.now, event{kind: evSpawn, taskID: r, home: home, from: from, fromW: fromW})
	}
}

// dagComplete is the handleDone hook: the finished task's outputs become
// resident (exclusively — prior copies are stale) at the executing
// place, and every dependent this completion releases is spawned.
func (e *engine) dagComplete(id int, w *simWorker) {
	ds := e.dag
	for _, b := range ds.g.Tasks[id].Outputs {
		ds.dir.Produce(b, w.place.id)
		ds.plan.Produce(b, w.place.id)
	}
	ds.relBuf = ds.tracker.Complete(id, ds.relBuf[:0])
	e.dagRelease(ds.relBuf, w.place.id, w.id)
}

// dagHome picks the released task's home place: the declared
// owner-computes home under PolicyBlind, or the directory-scored best
// place under PolicyDataAware — modelled fetch time for the inputs not
// resident there, plus the expected queueing delay behind the place's
// running and queued tasks.
func (e *engine) dagHome(t int) int {
	ds := e.dag
	if ds.pol == dag.PolicyBlind {
		return e.g.Tasks[t].Home
	}
	wpp := int64(e.cl.WorkersPerPlace)
	for p, pl := range e.places {
		if pl.Down() {
			// Never placeable; handleSpawn re-homes if everything scores
			// this badly.
			ds.backlog[p] = 1 << 62
			continue
		}
		ds.backlog[p] = int64(pl.running+pl.queued) * ds.avgCostNS / wpp
	}
	best := dag.BestPlace(ds.g, ds.plan, t, ds.backlog, ds.transfer)
	for _, b := range ds.g.Tasks[t].Inputs {
		if !ds.plan.Resident(b, best) && ds.plan.Anywhere(b) {
			ds.plan.Replicate(b, best)
		}
	}
	return best
}

// dagFetch is the start() hook: input blocks not resident at the
// executing place are fetched — one message and a payload transfer each,
// and the place keeps the replica — before the task's cost is charged.
// Blocks resident nowhere (never seeded, never produced) are treated as
// materialized in place, for free.
func (e *engine) dagFetch(id int, w *simWorker) int64 {
	ds := e.dag
	p := w.place
	var fetchNS int64
	var hits, misses int32
	var bytes int64
	for _, b := range ds.g.Tasks[id].Inputs {
		if ds.dir.Resident(b, p.id) || !ds.dir.Anywhere(b) {
			hits++
			continue
		}
		sz := ds.g.BlockBytes[b]
		misses++
		bytes += int64(sz)
		fetchNS += e.cl.Net.TransferNS(sz)
		ds.dir.Replicate(b, p.id)
		ds.plan.Replicate(b, p.id)
	}
	if hits > 0 {
		e.ctrs.DAGResidentHits.Add(int64(hits))
		e.record(p.id, w.local, obs.KindDAGResidentHit, int32(id), hits, 0)
	}
	if misses > 0 {
		e.ctrs.DAGResidentMisses.Add(int64(misses))
		e.ctrs.DAGFetchedBytes.Add(bytes)
		e.ctrs.Messages.Add(int64(misses))
		e.ctrs.BytesTransferred.Add(bytes)
		e.record(p.id, w.local, obs.KindDAGResidentMiss, int32(id), misses, fetchNS)
	}
	return fetchNS
}

// dagStealScore returns the thief place's steal-scoring closure for
// Ring.StealBestAppend: fewest fetch bytes first (scores are negated
// byte counts, and the deque breaks ties oldest-first). Closures are
// cached per place so the steady-state steal path does not allocate.
func (e *engine) dagStealScore(place int) func(int) int64 {
	ds := e.dag
	if ds.score == nil {
		ds.score = make([]func(int) int64, len(e.places))
	}
	if ds.score[place] == nil {
		g, dir := ds.g, ds.dir
		ds.score[place] = func(id int) int64 {
			return -int64(dir.MoveBytes(g, id, place))
		}
	}
	return ds.score[place]
}
