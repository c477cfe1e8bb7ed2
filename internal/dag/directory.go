package dag

import (
	"fmt"
	"math/bits"
	"strings"
)

// Directory records which places hold a current copy of each block, in
// one flat bit array: block b's residency is the words bit-words from
// b*words, bit p of them set when place p holds a copy. A producer
// completing at a place makes that place the block's sole resident
// (earlier copies are stale); a consumer fetching the block to another
// place adds a replica. Not safe for concurrent use, like Tracker; each
// run's Flow owns one.
type Directory struct {
	places int
	words  int
	bits   []uint64
	held   []int // BestPlace's scratch: resident bytes per place
}

// NewDirectory returns a directory for a cluster of places. It holds no
// blocks until SeedFrom sizes it for a graph.
func NewDirectory(places int) *Directory {
	if places <= 0 {
		panic(fmt.Sprintf("dag: NewDirectory(%d), want > 0", places))
	}
	return &Directory{places: places, words: (places + 63) / 64}
}

// SeedFrom sizes the directory for g's blocks, every one resident
// nowhere, then installs g's seeds, wrapping declared owners into the
// cluster.
func (d *Directory) SeedFrom(g *Graph) {
	d.bits = make([]uint64, len(g.BlockBytes)*d.words)
	for b, p := range g.Seed {
		if p != NoSeed {
			d.Produce(b, wrap(p, d.places))
		}
	}
}

// row returns block b's residency words.
func (d *Directory) row(b int) []uint64 { return d.bits[b*d.words : (b+1)*d.words : (b+1)*d.words] }

// Produce records place as the block's sole resident: the producer just
// wrote it, so every other copy is stale.
func (d *Directory) Produce(b, place int) {
	w := d.row(b)
	clear(w)
	w[place>>6] = 1 << (uint(place) & 63)
}

// Replicate records that place now also holds a copy of b (a consumer
// fetched it).
func (d *Directory) Replicate(b, place int) { d.row(b)[place>>6] |= 1 << (uint(place) & 63) }

// Resident reports whether place holds a current copy of b.
func (d *Directory) Resident(b, place int) bool {
	return d.row(b)[place>>6]&(1<<(uint(place)&63)) != 0
}

// Anywhere reports whether any place holds b (false for blocks never
// produced nor seeded — e.g. constants materialized wherever needed).
func (d *Directory) Anywhere(b int) bool { return anywhereIn(d.row(b)) }

// anywhereIn is Anywhere over a block's residency words.
func anywhereIn(w []uint64) bool {
	for _, word := range w {
		if word != 0 {
			return true
		}
	}
	return false
}

// FetchBytes returns the input bytes task t would have to pull to place:
// those of the blocks not resident there but somewhere (a block with no
// copy anywhere costs nothing to "fetch"; it has no source).
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

// Policy selects where the scheduler places released DAG tasks. Thieves
// take the oldest queued task under either.
type Policy uint8

const (
	// PolicyBlind ignores the directory: tasks run at their declared
	// (owner-computes) home — the locality-oblivious baseline.
	PolicyBlind Policy = iota
	// PolicyDataAware scores candidate places by the bytes that would
	// have to move there against queue backlog (BestPlace).
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
// passes a measured-bytes proxy). The declared home, wrapped into the
// len(backlogNS) places, wins ties, then the lowest place id; the scan
// order is fixed, so the choice is deterministic.
//
// Each block's residency words are read once, not once per place: the
// bytes of the blocks held somewhere are summed, each block's bytes are
// credited to the places holding it, and MoveBytes(t, p) is that sum
// less p's credit.
func BestPlace(g *Graph, d *Directory, t int, backlogNS []int64, transfer func(bytes int) int64) int {
	if cap(d.held) < len(backlogNS) {
		d.held = make([]int, len(backlogNS))
	}
	held := d.held[:len(backlogNS)]
	clear(held)
	var total int
	for _, b := range g.Tasks[t].Inputs {
		total += d.credit(held, b, g.BlockBytes[b])
	}
	for _, b := range g.Tasks[t].Outputs {
		total += d.credit(held, b, g.BlockBytes[b]/2)
	}
	home := wrap(g.Tasks[t].Home, len(backlogNS))
	best := home
	bestScore := transfer(total-held[home]) + backlogNS[home]
	for p := range backlogNS {
		if p == home {
			continue
		}
		score := transfer(total-held[p]) + backlogNS[p]
		if score < bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// credit adds weight to held[p] for every place p < len(held) holding
// b, and returns the weight, or 0 when no place holds b.
func (d *Directory) credit(held []int, b, weight int) int {
	w := d.row(b)
	if !anywhereIn(w) {
		return 0
	}
	for i, word := range w {
		for ; word != 0; word &= word - 1 {
			if p := i<<6 + bits.TrailingZeros64(word); p < len(held) {
				held[p] += weight
			}
		}
	}
	return weight
}
