package dag

import (
	"fmt"
	"strings"
)

// Directory records which places hold a current copy of each block. A
// producer completing at a place makes that place the block's sole
// resident (earlier copies are stale); a consumer fetching the block to
// another place adds a replica. Not safe for concurrent use, like Tracker:
// the simulator's event loop owns its own, Execute guards its under the
// run's lock.
type Directory struct {
	places int
	words  int
	bits   map[uint64][]uint64
}

// NewDirectory returns an empty directory for a cluster of places.
func NewDirectory(places int) *Directory {
	if places <= 0 {
		panic(fmt.Sprintf("dag: NewDirectory(%d), want > 0", places))
	}
	return &Directory{
		places: places,
		words:  (places + 63) / 64,
		bits:   make(map[uint64][]uint64),
	}
}

// SeedFrom installs the graph's initial block residency, wrapping
// declared owners into the cluster (a graph built for 16 places still
// seeds correctly on 4).
func (d *Directory) SeedFrom(g *Graph) {
	for b, p := range g.Seed {
		d.Produce(b, ((p%d.places)+d.places)%d.places)
	}
}

func (d *Directory) set(b uint64, place int) {
	w := d.bits[b]
	if w == nil {
		w = make([]uint64, d.words)
		d.bits[b] = w
	}
	w[place>>6] |= 1 << (uint(place) & 63)
}

// Produce records place as the block's sole resident: the producer just
// wrote it, so every other copy is stale.
func (d *Directory) Produce(b uint64, place int) {
	w := d.bits[b]
	if w == nil {
		d.set(b, place)
		return
	}
	for i := range w {
		w[i] = 0
	}
	w[place>>6] |= 1 << (uint(place) & 63)
}

// Replicate records that place now also holds a copy of b (a consumer
// fetched it).
func (d *Directory) Replicate(b uint64, place int) { d.set(b, place) }

// Resident reports whether place holds a current copy of b.
func (d *Directory) Resident(b uint64, place int) bool {
	w := d.bits[b]
	if w == nil {
		return false
	}
	return w[place>>6]&(1<<(uint(place)&63)) != 0
}

// Anywhere reports whether any place holds b (false for blocks never
// produced nor seeded — e.g. constants materialized wherever needed).
func (d *Directory) Anywhere(b uint64) bool {
	for _, word := range d.bits[b] {
		if word != 0 {
			return true
		}
	}
	return false
}

// ResidentBytes returns how many of task t's input bytes are already
// resident at place, and FetchBytes the complement that would have to
// move there — only counting blocks that exist somewhere (a block with
// no copy anywhere costs nothing to "fetch"; it has no source).
func (d *Directory) ResidentBytes(g *Graph, t, place int) int {
	var sum int
	for _, b := range g.Tasks[t].Inputs {
		if d.Resident(b, place) {
			sum += g.BlockBytes[b]
		}
	}
	return sum
}

// FetchBytes returns the input bytes task t would have to pull to place.
func (d *Directory) FetchBytes(g *Graph, t, place int) int {
	var sum int
	for _, b := range g.Tasks[t].Inputs {
		if !d.Resident(b, place) && d.Anywhere(b) {
			sum += g.BlockBytes[b]
		}
	}
	return sum
}

// MoveBytes is FetchBytes plus half the bytes of output blocks not
// resident at place. Running a task away from an output block's current
// home drags the block there — its sole copy after the Produce
// invalidation — so read-modify-write accumulators (Cholesky's trailing
// tiles, say) charge extra for displacement beyond the input fetch. The
// displacement weight is half a block, not a full one: once moved, the
// accumulator re-homes (later writers follow it via this same score)
// rather than being chased back, so a full-weight penalty would forbid
// moves that save real traffic — e.g. running a GEMM where both its
// panel tiles already reside. This is the placement score; FetchBytes
// alone is what a schedule actually pays.
func (d *Directory) MoveBytes(g *Graph, t, place int) int {
	sum := d.FetchBytes(g, t, place)
	for _, b := range g.Tasks[t].Outputs {
		if !d.Resident(b, place) && d.Anywhere(b) {
			sum += g.BlockBytes[b] / 2
		}
	}
	return sum
}

// Policy selects how the scheduler places and steals DAG tasks.
type Policy uint8

const (
	// PolicyBlind ignores the directory: tasks run at their declared
	// (owner-computes) home and thieves take the oldest queued task —
	// the locality-oblivious baseline.
	PolicyBlind Policy = iota
	// PolicyDataAware scores candidate places by resident-input bytes
	// versus migration cost and queue backlog, and thieves prefer the
	// queued task whose inputs are already resident at the thief.
	PolicyDataAware
	numPolicies
)

// String returns the canonical -dag-policy spelling.
func (p Policy) String() string {
	switch p {
	case PolicyBlind:
		return "blind"
	case PolicyDataAware:
		return "data-aware"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Valid reports whether p names a known policy.
func (p Policy) Valid() bool { return p < numPolicies }

// PolicyNames lists the valid -dag-policy spellings.
func PolicyNames() []string { return []string{"blind", "data-aware"} }

// ParsePolicy resolves a case-insensitive -dag-policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "blind":
		return PolicyBlind, nil
	case "data-aware", "dataaware", "aware":
		return PolicyDataAware, nil
	default:
		return 0, fmt.Errorf("dag: unknown policy %q (valid: %s)",
			s, strings.Join(PolicyNames(), ", "))
	}
}

// BestPlace returns the place minimizing the data-aware placement score
// for task t:
//
//	score(p) = transfer(MoveBytes(t, p)) + backlogNS(p)
//
// — the modelled cost of moving the non-resident inputs (and displaced
// output blocks; see MoveBytes) to p plus the caller's estimate of how
// long p's queue delays a new task. transfer is the runtime's migration
// cost model (the simulator passes topology.Network.TransferNS; Execute
// passes a measured-bytes proxy). The declared home wins ties, then the
// lowest place id; the scan order is fixed, so the choice is
// deterministic.
func BestPlace(g *Graph, d *Directory, t int, backlogNS []int64, transfer func(bytes int) int64) int {
	return bestPlace(g, d, t, g.Tasks[t].Home, backlogNS, transfer)
}

// bestPlace is BestPlace with the incumbent home passed in, for a caller
// whose cluster is smaller than the one the graph's declared homes were
// built for: Execute scores against the wrapped home without writing it
// back into the (shared, read-only) graph.
func bestPlace(g *Graph, d *Directory, t, home int, backlogNS []int64, transfer func(bytes int) int64) int {
	if home < 0 || home >= len(backlogNS) {
		home = 0
	}
	best := home
	bestScore := transfer(d.MoveBytes(g, t, home)) + backlogNS[home]
	for p := range backlogNS {
		if p == home {
			continue
		}
		score := transfer(d.MoveBytes(g, t, p)) + backlogNS[p]
		if score < bestScore {
			best, bestScore = p, score
		}
	}
	return best
}
