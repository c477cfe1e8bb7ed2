package service

import "sort"

// Item is one admitted job waiting for a dispatch slot, with the
// bookkeeping the server needs when it finally goes out.
type Item struct {
	// Job is the admitted job.
	Job Job
	// Client is the submitting client's place id (where the reply goes).
	Client int
	// AdmittedNS is the admission instant (queue-wait accounting).
	AdmittedNS int64
	// Seq is the dispatch id the server minted at admission: the wire Seq
	// of every KindSpawn that carries this job, however often it is re-sent.
	Seq uint64
}

// tenantQueue is one tenant's backlog plus its deficit-round-robin state.
type tenantQueue struct {
	items   []Item
	deficit int
	active  bool // member of the service ring
}

// FairShare schedules admitted jobs across tenants with weighted deficit
// round robin (Shreedhar & Varghese): tenants sit on a service ring; each
// visit adds quantum×weight credit to the visited tenant's deficit, and a
// job is dispatched whenever the tenant at the cursor has a job and at
// least one job's worth of credit. With unit job cost this degenerates to
// weighted round robin with per-visit bursts of `weight` jobs — the
// starvation bound pinned by test: a backlogged tenant waits at most
// ΣWeights−w_i+1 dispatches between two of its own.
//
// The structure is deterministic (ring order = first-push order, ties
// broken by tenant id at Reset) and clock-free, so the simulator replays
// it bit-identically. Not safe for concurrent use.
type FairShare struct {
	quantum int
	weights map[uint32]int
	queues  map[uint32]*tenantQueue
	ring    []uint32 // tenants with queued work, service order
	cursor  int
}

// NewFairShare builds a scheduler with the given per-tenant weights.
// quantum scales the credit added per visit (0 means 1); with unit job
// cost it is the per-visit burst multiplier.
func NewFairShare(quantum int, weights map[uint32]int) *FairShare {
	if quantum < 1 {
		quantum = 1
	}
	return &FairShare{
		quantum: quantum,
		weights: weights,
		queues:  make(map[uint32]*tenantQueue),
	}
}

// weight returns the tenant's effective weight.
func (f *FairShare) weight(tenant uint32) int {
	if w := f.weights[tenant]; w > 1 {
		return w
	}
	return 1
}

// Push enqueues an admitted job at the tail of its tenant's queue.
// Within one tenant, higher Priority jobs are served before lower ones
// (stable among equals); tenants never preempt each other.
func (f *FairShare) Push(tenant uint32, it Item) {
	q := f.queues[tenant]
	if q == nil {
		q = &tenantQueue{}
		f.queues[tenant] = q
	}
	// Insert before the first strictly-lower-priority item from the tail,
	// keeping arrival order among equal priorities.
	pos := len(q.items)
	for pos > 0 && q.items[pos-1].Job.Priority < it.Job.Priority {
		pos--
	}
	q.items = append(q.items, Item{})
	copy(q.items[pos+1:], q.items[pos:])
	q.items[pos] = it
	if !q.active {
		q.active = true
		f.ring = append(f.ring, tenant)
	}
}

// Pop removes and returns the next job under the DRR discipline. The
// second result is false when nothing is queued.
func (f *FairShare) Pop() (Item, bool) {
	for len(f.ring) > 0 {
		if f.cursor >= len(f.ring) {
			f.cursor = 0
		}
		tenant := f.ring[f.cursor]
		q := f.queues[tenant]
		if len(q.items) == 0 {
			// Emptied since its last service: drop from the ring and
			// reset its credit (classic DRR: idle tenants accrue nothing).
			q.active = false
			q.deficit = 0
			f.ring = append(f.ring[:f.cursor], f.ring[f.cursor+1:]...)
			continue
		}
		if q.deficit < 1 {
			q.deficit += f.quantum * f.weight(tenant)
			if q.deficit < 1 {
				f.cursor++
				continue
			}
		}
		q.deficit--
		it := q.items[0]
		q.items = q.items[1:]
		if len(q.items) == 0 {
			q.active = false
			q.deficit = 0
			f.ring = append(f.ring[:f.cursor], f.ring[f.cursor+1:]...)
		} else if q.deficit < 1 {
			f.cursor++ // credit spent: next tenant's turn
		}
		return it, true
	}
	return Item{}, false
}

// DrainAll empties every queue, returning the stranded items ordered by
// tenant id then queue position — the shutdown path, where everything
// still queued is nacked back to its client.
func (f *FairShare) DrainAll() []Item {
	ids := make([]uint32, 0, len(f.queues))
	for id, q := range f.queues {
		if len(q.items) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Item
	for _, id := range ids {
		q := f.queues[id]
		out = append(out, q.items...)
		q.items = nil
		q.active = false
		q.deficit = 0
	}
	f.ring = f.ring[:0]
	f.cursor = 0
	return out
}
