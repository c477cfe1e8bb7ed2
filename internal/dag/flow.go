package dag

// Flow is one run's dataflow state, the half of a DAG run both engines
// share: it releases a task when its last dependency completes, places
// it (at its declared home wrapped into the cluster under PolicyBlind,
// at BestPlace under PolicyDataAware), accounts its inputs at the place
// it runs (a resident hit, or a miss that replicates the block there),
// and makes its outputs resident where it ran. Execute drives one under
// its run lock, sim.RunDAG from its event loop; each passes its Cost,
// which is what differs between them. Not safe for concurrent use.
type Flow struct {
	g      *Graph
	policy Policy
	tr     *Tracker
	dir    *Directory
	// Stats is the run's release and input-residency account.
	Stats   ExecStats
	backlog []int64 // placement scratch, one slot per place
}

// Cost is what a Flow asks of the engine running it, both answers in the
// one unit the engine prices placement in.
type Cost interface {
	// Backlog estimates how long place p's queue delays a new task.
	Backlog(p int) int64
	// Transfer is the cost of moving a payload of bytes between places.
	Transfer(bytes int) int64
}

// ExecStats is a DAG run's release and input-residency account: what
// Execute returns and sim.Result.DAG reports.
type ExecStats struct {
	Released       int64 // tasks released into the scheduler
	ResidentHits   int64 // input blocks resident at the executing place
	ResidentMisses int64 // input blocks fetched from another place
	FetchedBytes   int64 // bytes moved by those fetches
}

// ResidencyRate returns the hit fraction in percent (0 when nothing ran).
func (s ExecStats) ResidencyRate() float64 {
	total := s.ResidentHits + s.ResidentMisses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.ResidentHits) / float64(total)
}

// NewFlow starts a run of g on a cluster of places under policy, over
// g's shared schedule, with the graph's seed blocks resident. g must be
// valid.
func NewFlow(g *Graph, places int, policy Policy) *Flow {
	f := &Flow{g: g, policy: policy, tr: NewTracker(g.Schedule()), dir: NewDirectory(places),
		backlog: make([]int64, places)}
	f.dir.SeedFrom(g)
	return f
}

// wrap maps a place declared for some cluster into one of places places:
// a graph built for 16 places still runs, and seeds, on 4.
func wrap(p, places int) int { return ((p % places) + places) % places }

// Home returns task t's declared home wrapped into the cluster.
func (f *Flow) Home(t int) int { return wrap(f.g.Tasks[t].Home, len(f.backlog)) }

// Ready appends the initially released tasks to dst, in id order.
func (f *Flow) Ready(dst []int) []int { return f.tr.Ready(dst) }

// Place counts released task t and returns the place it is to run at.
func (f *Flow) Place(t int, c Cost) int {
	f.Stats.Released++
	if f.policy == PolicyBlind {
		return f.Home(t)
	}
	for p := range f.backlog {
		f.backlog[p] = c.Backlog(p)
	}
	return BestPlace(f.g, f.dir, t, f.backlog, c.Transfer)
}

// Fetch accounts task t's inputs at place, where it runs: each is a hit
// if resident there, else a miss that moves it and leaves a replica. A
// block resident nowhere (never seeded nor produced) is created in place,
// a hit. It returns the counts, the bytes the misses moved and their
// summed Transfer cost.
func (f *Flow) Fetch(t, place int, c Cost) (hits, misses int32, bytes, cost int64) {
	for _, b := range f.g.Tasks[t].Inputs {
		if f.dir.Resident(b, place) || !f.dir.Anywhere(b) {
			hits++
			continue
		}
		sz := f.g.BlockBytes[b]
		misses++
		bytes += int64(sz)
		cost += c.Transfer(sz)
		f.dir.Replicate(b, place)
	}
	f.Stats.ResidentHits += int64(hits)
	f.Stats.ResidentMisses += int64(misses)
	f.Stats.FetchedBytes += bytes
	return hits, misses, bytes, cost
}

// Complete makes task t's outputs resident at place, where it ran (their
// only copies now), and appends the dependents its completion releases to
// dst, in id order.
func (f *Flow) Complete(t, place int, dst []int) []int {
	for _, b := range f.g.Tasks[t].Outputs {
		f.dir.Produce(b, place)
	}
	return f.tr.Complete(t, dst)
}

// Done reports whether every task has completed.
func (f *Flow) Done() bool { return f.tr.Done() }
