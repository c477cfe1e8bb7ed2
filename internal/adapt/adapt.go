// Package adapt is the online locality-classification and steal-tuning
// controller behind the `adaptive` scheduling policy: DistWS without the
// programmer's @AnyPlaceTask annotations.
//
// The paper's central caveat (§XI) is that DistWS's 12–31% gains hinge on
// the programmer classifying tasks as locality-flexible or -sensitive; a
// wrong annotation silently forfeits them. This package replaces the
// annotation with feedback. Tasks are bucketed into *kinds* by the log2
// shape of their observable attributes (granularity, data footprint,
// migration payload, remote-reference count — never the annotation), and
// a per-run Controller consumes three scheduler signals:
//
//   - per-kind service times and data-locality penalties (cache-miss
//     stalls, remote-reference round trips), split by whether the task
//     ran at its home place or migrated, so both the gross remote
//     slowdown of a kind and the migration-attributable share of it are
//     measurable (the cache-miss and remote-reference penalties of
//     §VIII land in exactly this difference);
//   - steal outcomes per (thief place, victim place) pair — acquisition
//     latency and how much surplus the victim held — following the
//     latency-aware analysis of Gast et al.;
//   - how often recent steal chunks drained their victim dry versus left
//     it rich, the signal for tuning the chunk size around the paper's
//     fixed 2 (§V-B3).
//
// From these it (a) reclassifies kinds online between the shared FIFO
// deque and private LIFO deques with hysteresis so classifications
// converge instead of oscillating, (b) adapts each place's remote steal
// chunk size within [minChunk, maxChunk], and (c) orders victim sweeps
// by observed acquisition latency, with unobserved victims tried first
// (optimism drives exploration) and ties broken by the caller's RNG so
// the ordering degenerates to DistWS's randomized sweep until latencies
// actually differ.
//
// Every kind starts Flexible: the controller's prior is the non-selective
// end of the design space, and evidence of remote slowdown pins kinds
// Sensitive one by one. A pinned kind stops migrating, so it stops
// producing remote samples and its classification is stable — the flip
// count per kind is bounded in practice by one (see the convergence tests
// in internal/sim).
//
// All methods are safe for concurrent use (the real runtime's workers
// share one Controller); the simulator drives it single-threaded, where
// the uncontended mutex costs a few nanoseconds per event.
package adapt

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"distws/internal/task"
)

// The controller's tunables. Every run uses these values.
const (
	// pinRatio: a kind whose migrated service-time EWMA exceeds pinRatio ×
	// its home EWMA is pinned Sensitive — high enough that a migrated
	// flexible task's one cold cache pass does not pin it, low enough that
	// per-pass remote-reference bursts do.
	pinRatio = 1.5
	// unpinRatio: a pinned kind whose ratio falls below unpinRatio is
	// released back to Flexible. The gap between the two ratios is the
	// hysteresis band that prevents flip oscillation.
	unpinRatio = 1.2
	// pinPenaltyFrac is the second, sharper pin criterion: a kind whose
	// migrated data-locality penalty (remote-reference round trips plus
	// cache-miss stalls, the penaltyNS input of ObserveExec) exceeds this
	// fraction of its home service time is pinned Sensitive even when the
	// total-service ratio stays under pinRatio. Coarse tasks bury a large
	// absolute migration penalty in an even larger compute time; the
	// penalty fraction resolves what the ratio cannot.
	pinPenaltyFrac = 0.05
	// unpinPenaltyFrac releases a pinned kind when its migrated penalty
	// falls below this fraction of home service; with unpinRatio it forms
	// the hysteresis band.
	unpinPenaltyFrac = pinPenaltyFrac / 2
	// minSamples is how many home AND migrated observations a kind needs
	// before it may be reclassified.
	minSamples = 3
	// alpha is the EWMA weight of a new service-time or latency sample.
	alpha = 0.25
	// minChunk and maxChunk bound the adapted remote steal chunk size,
	// bracketing the paper's fixed 2.
	minChunk, maxChunk = 1, 4
	// chunkWindow is how many successful steals a place accumulates
	// before reconsidering its chunk size.
	chunkWindow = 16
	// latencyShift quantizes victim latency EWMAs for ordering into
	// buckets of 1<<latencyShift = 8192 ns: victims within one bucket are
	// considered equally attractive and keep their randomized relative
	// order. Under the default network model a clean probe round trip is
	// ≈10 µs and a timeout ≥ 4× that, so healthy victims share a bucket
	// and flaky ones fall behind. A shift, not a division: latency EWMAs
	// are non-negative, so it is exact and spares AppendVictimOrder a
	// 64-bit division per victim per sweep.
	latencyShift = 13
)

// Config parameterizes a Controller.
type Config struct {
	// Places is the cluster's place count (required, >= 1).
	Places int

	// Unsynchronized skips the controller's internal mutex: the caller
	// guarantees every method call happens from a single goroutine. The
	// simulator's virtual-time loop qualifies and sets it for the
	// controllers it constructs — at one observation per probe and one
	// ordering per sweep, the uncontended lock/unlock atomics alone were
	// a visible slice of the adaptive policy's profile. The runtime's
	// shared controllers must leave it false.
	Unsynchronized bool
}

// Signature buckets a task's observable attributes into a kind key: the
// log2 magnitude of its cost, footprint, remote-reference count, and
// migration payload, one byte each. Tasks produced by the same program
// point at similar sizes collapse into one kind, while the annotation
// never enters the key — classifying it is the controller's job. Callers
// that do not know an attribute at spawn time (the real runtime never
// knows cost up front) pass zero for it.
func Signature(costNS int64, footprint, migMsgs, migBytes int) uint64 {
	return uint64(log2Bucket(costNS)) |
		uint64(log2Bucket(int64(footprint)))<<8 |
		uint64(log2Bucket(int64(migMsgs)))<<16 |
		uint64(log2Bucket(int64(migBytes)))<<24
}

func log2Bucket(v int64) uint8 {
	if v <= 0 {
		return 0
	}
	return uint8(bits.Len64(uint64(v)))
}

// kindStats is the per-kind classification state.
type kindStats struct {
	class     task.Class
	homeEW    float64 // EWMA service at the home place
	awayEW    float64 // EWMA service when migrated
	homePenEW float64 // EWMA data-locality penalty at home
	awayPenEW float64 // EWMA data-locality penalty when migrated
	homeN     int
	awayN     int
	flips     int64
}

// chunkState is one place's chunk-size controller.
type chunkState struct {
	chunk   int
	steals  int // successful steals in the current window
	emptied int // ...that drained the victim dry
	rich    int // ...that left the victim at least a chunk of surplus
}

// victimStat is one directed (thief place, victim place) link's state.
type victimStat struct {
	latEW float64 // EWMA acquisition latency, ns
	n     int
}

// Controller is the per-run feedback controller. Create with New; share
// one instance across every worker of the run.
type Controller struct {
	cfg Config

	mu     sync.Mutex
	sigs   map[uint64]int32
	kinds  []kindStats
	flips  int64
	chunks []chunkState
	links  []victimStat // [thief*Places + victim]
	scores []int64      // AppendVictimOrder scratch (guarded by mu)

	// Lock-free snapshots of the two values the scheduler reads on its
	// hot path. Classify runs once per spawn and Chunk once per steal
	// sweep; taking the controller mutex for a single read there is the
	// dominant adaptive overhead. The mutators (Intern, ObserveExec,
	// ObserveSteal) keep the mutex and mirror their decisions here:
	// classes is copy-on-write grown by Intern with entries stored
	// in-place on a flip, chunkNow is fixed-size per place.
	classes  atomic.Pointer[[]atomic.Int32] // dense kind id -> task.Class
	chunkNow []atomic.Int32                 // per-place current chunk size
}

// New returns a Controller for a cluster of cfg.Places places.
func New(cfg Config) *Controller {
	if cfg.Places < 1 {
		panic(fmt.Sprintf("adapt: Config.Places = %d, want >= 1", cfg.Places))
	}
	c := &Controller{
		cfg:      cfg,
		sigs:     make(map[uint64]int32),
		chunks:   make([]chunkState, cfg.Places),
		links:    make([]victimStat, cfg.Places*cfg.Places),
		chunkNow: make([]atomic.Int32, cfg.Places),
	}
	for p := range c.chunks {
		c.chunks[p].chunk = 2 // the paper's §V-B3 starting point
		c.chunkNow[p].Store(2)
	}
	empty := make([]atomic.Int32, 0)
	c.classes.Store(&empty)
	return c
}

// lock/unlock guard the controller's mutable state; they are the mutex
// unless Config.Unsynchronized promised single-goroutine use.
func (c *Controller) lock() {
	if !c.cfg.Unsynchronized {
		c.mu.Lock()
	}
}

func (c *Controller) unlock() {
	if !c.cfg.Unsynchronized {
		c.mu.Unlock()
	}
}

// Intern resolves a task signature to its kind id, registering it on
// first sight. Kind ids are dense and stable for the Controller's life.
func (c *Controller) Intern(sig uint64) int32 {
	c.lock()
	defer c.unlock()
	if id, ok := c.sigs[sig]; ok {
		return id
	}
	id := int32(len(c.kinds))
	c.sigs[sig] = id
	c.kinds = append(c.kinds, kindStats{class: task.Flexible})
	// Copy-on-write growth of the lock-free class table: concurrent
	// Classify calls see either the old or the new snapshot, both
	// consistent.
	old := *c.classes.Load()
	grown := make([]atomic.Int32, len(c.kinds))
	for i := range old {
		grown[i].Store(old[i].Load())
	}
	grown[id].Store(int32(task.Flexible))
	c.classes.Store(&grown)
	return id
}

// NumKinds returns how many distinct kinds have been interned.
func (c *Controller) NumKinds() int {
	c.lock()
	defer c.unlock()
	return len(c.kinds)
}

// Classify returns kind's current classification — the class the mapper
// feeds into Algorithm 1 lines 1–8 in place of the annotation. It runs
// once per spawn, so it reads the lock-free class snapshot instead of
// taking the controller mutex.
func (c *Controller) Classify(kind int32) task.Class {
	classes := *c.classes.Load()
	if kind < 0 || int(kind) >= len(classes) {
		return task.Flexible
	}
	return task.Class(classes[kind].Load())
}

// ObserveExec feeds one completed execution of a kind task into the
// classifier: serviceNS is the task's service time (execution plus the
// migration penalties it actually paid, excluding acquisition latency),
// penaltyNS is the portion of that service attributable to data
// locality — remote-reference round trips and cache-miss stalls — and
// migrated says whether the task ran away from its home place. In a
// real runtime penaltyNS comes from hardware counters (remote DRAM
// accesses, measured network round trips); producers without such
// instrumentation pass 0 and the classifier falls back to the coarser
// total-service ratio alone. When the observation flips the kind's
// classification, flipped is true and class is the new classification —
// callers surface the flip to metrics and tracing.
func (c *Controller) ObserveExec(kind int32, migrated bool, serviceNS, penaltyNS int64) (flipped bool, class task.Class) {
	if serviceNS < 0 {
		serviceNS = 0
	}
	if penaltyNS < 0 {
		penaltyNS = 0
	}
	s, pen := float64(serviceNS), float64(penaltyNS)
	c.lock()
	defer c.unlock()
	if int(kind) >= len(c.kinds) {
		return false, task.Flexible
	}
	k := &c.kinds[kind]
	if migrated {
		if k.awayN == 0 {
			k.awayEW, k.awayPenEW = s, pen
		} else {
			k.awayEW += alpha * (s - k.awayEW)
			k.awayPenEW += alpha * (pen - k.awayPenEW)
		}
		k.awayN++
	} else {
		if k.homeN == 0 {
			k.homeEW, k.homePenEW = s, pen
		} else {
			k.homeEW += alpha * (s - k.homeEW)
			k.homePenEW += alpha * (pen - k.homePenEW)
		}
		k.homeN++
	}
	if k.homeN < minSamples || k.awayN < minSamples || k.homeEW <= 0 {
		return false, k.class
	}
	// Two pin criteria, with the unpin thresholds of both forming one
	// hysteresis band: the total-service ratio catches gross remote
	// slowdowns without any penalty instrumentation, while the penalty
	// fraction (migration-attributable excess over the home baseline,
	// relative to home service) resolves coarse tasks whose large
	// absolute penalty is buried in an even larger compute time.
	ratio := k.awayEW / k.homeEW
	penFrac := (k.awayPenEW - k.homePenEW) / k.homeEW
	switch {
	case k.class == task.Flexible &&
		(ratio > pinRatio || penFrac > pinPenaltyFrac):
		k.class = task.Sensitive
	case k.class == task.Sensitive &&
		ratio < unpinRatio && penFrac < unpinPenaltyFrac:
		k.class = task.Flexible
	default:
		return false, k.class
	}
	k.flips++
	c.flips++
	(*c.classes.Load())[kind].Store(int32(k.class))
	return true, k.class
}

// Flips returns the total number of reclassifications so far.
func (c *Controller) Flips() int64 {
	c.lock()
	defer c.unlock()
	return c.flips
}

// KindFlips returns how often kind has been reclassified.
func (c *Controller) KindFlips(kind int32) int64 {
	c.lock()
	defer c.unlock()
	if int(kind) >= len(c.kinds) {
		return 0
	}
	return c.kinds[kind].flips
}

// Chunk returns place's current remote steal chunk size. It runs once
// per steal sweep, so it reads the lock-free per-place snapshot instead
// of taking the controller mutex.
func (c *Controller) Chunk(place int) int {
	return int(c.chunkNow[place].Load())
}

// ObserveSteal feeds one remote steal outcome into the chunk and victim
// controllers: thief probed victim, waited latencyNS of acquisition
// latency (round trips, timeouts, transfer), and obtained got tasks
// leaving victimLeft behind in the victim's shared deque. A failed or
// empty probe is got == 0; its latency still trains the victim order
// (timeout-laden links fall behind clean ones).
func (c *Controller) ObserveSteal(thief, victim int, latencyNS int64, got, victimLeft int) {
	c.lock()
	defer c.unlock()
	c.latObserveLocked(thief, victim, latencyNS)
	if got > 0 {
		c.chunkObserveLocked(thief, victimLeft)
	}
}

// latObserveLocked is the per-probe hot path — most observations are
// failed probes (got == 0) whose only effect is the latency EWMA — and
// is kept small enough for the compiler to inline it into ObserveSteal;
// a call per probe on top of three float ops showed up in sweep-heavy
// profiles. The successful-steal bookkeeping lives in chunkObserveLocked,
// off this path.
func (c *Controller) latObserveLocked(thief, victim int, latencyNS int64) {
	if latencyNS < 0 {
		latencyNS = 0
	}
	l := &c.links[thief*c.cfg.Places+victim]
	if l.n == 0 {
		l.latEW = float64(latencyNS)
	} else {
		l.latEW += alpha * (float64(latencyNS) - l.latEW)
	}
	l.n++
}

func (c *Controller) chunkObserveLocked(thief, victimLeft int) {
	cs := &c.chunks[thief]
	cs.steals++
	if victimLeft == 0 {
		cs.emptied++
	} else if victimLeft >= cs.chunk {
		cs.rich++
	}
	if cs.steals < chunkWindow {
		return
	}
	// Window full: if most chunks drained their victim, the chunk is
	// over-stealing fine surplus — shrink; if most victims stayed rich,
	// round trips are being wasted on repeat visits — grow.
	if cs.emptied*2 > cs.steals {
		cs.chunk--
	} else if cs.rich*4 > cs.steals*3 {
		cs.chunk++
	}
	if cs.chunk < minChunk {
		cs.chunk = minChunk
	}
	if cs.chunk > maxChunk {
		cs.chunk = maxChunk
	}
	c.chunkNow[thief].Store(int32(cs.chunk))
	cs.steals, cs.emptied, cs.rich = 0, 0, 0
}

// AppendVictimOrder appends thief's victim sweep order to dst and
// returns the extended slice: every place except thief exactly once,
// randomly permuted by rng, then stably sorted by quantized observed
// acquisition latency. Unobserved victims sort first (optimistic
// exploration); victims within one latency bucket keep their randomized
// relative order, so with uniform latencies the order is exactly the
// DistWS randomized sweep. rng is consumed identically on every call,
// preserving the simulator's determinism.
func (c *Controller) AppendVictimOrder(dst []int, thief int, rng *rand.Rand) []int {
	start := len(dst)
	for p := 0; p < c.cfg.Places; p++ {
		if p != thief {
			dst = append(dst, p)
		}
	}
	order := dst[start:]
	rng.Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	c.lock()
	base := thief * c.cfg.Places
	// Quantize each victim's observed latency once up front — the
	// insertion sort below would otherwise recompute the division (and
	// reload the link state) on every comparison, which profiling showed
	// as the controller's largest per-sweep cost. The scratch lives on
	// the Controller (mutex-guarded, like the link state it caches).
	if cap(c.scores) < len(order) {
		c.scores = make([]int64, len(order))
	}
	scores := c.scores[:len(order)]
	for i, v := range order {
		if l := &c.links[base+v]; l.n == 0 {
			scores[i] = 0 // unobserved: optimistic exploration, sorts first
		} else {
			scores[i] = 1 + int64(l.latEW)>>latencyShift
		}
	}
	// Stable insertion sort: allocation-free (this runs once per steal
	// sweep) and the order is at most places-1 elements long.
	for i := 1; i < len(order); i++ {
		v, s := order[i], scores[i]
		j := i
		for j > 0 && scores[j-1] > s {
			order[j] = order[j-1]
			scores[j] = scores[j-1]
			j--
		}
		order[j], scores[j] = v, s
	}
	c.unlock()
	return dst
}
