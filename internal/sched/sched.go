// Package sched encodes the scheduling *decisions* of the paper — task
// mapping (Algorithm 1 lines 1–8), the work-finding order (lines 9–29),
// victim selection and steal chunk sizes — as pure functions shared by the
// real goroutine runtime (internal/core) and the discrete-event simulator
// (internal/sim), and the distributed steal itself (lines 14–29,
// Thief.Sweep), which both engines run through the Engine interface.
// Keeping both in one place guarantees the simulator evaluates exactly the
// policy, and counts exactly the steal attempts, the library ships.
//
// Five policies are provided:
//
//   - X10WS: the baseline X10 scheduler — help-first work stealing strictly
//     within a place; no distributed steals (paper §III).
//   - DistWS: the paper's contribution — locality-sensitive tasks pinned to
//     private deques, locality-flexible tasks mapped to the place's shared
//     deque unless the place is idle or under-utilized, distributed steals
//     of flexible tasks only, in chunks of two.
//   - DistWSNS: the non-selective ablation (§VIII-Q3) — tasks mapped round
//     robin between private and shared deques regardless of class, so any
//     task may be stolen remotely.
//   - RandomWS: classic randomized distributed work stealing (the UTS
//     baseline in §X) — every task is stealable, victims chosen uniformly.
//   - LifelineWS: Saraswat-style lifeline-based global load balancing
//     (§X) — random stealing first, then quiesce on a hypercube lifeline
//     graph and wait for work to be pushed.
package sched

import (
	"fmt"
	"math/rand"
	"strings"

	"distws/internal/task"
)

// Kind identifies a scheduling policy.
type Kind uint8

const (
	X10WS Kind = iota
	DistWS
	DistWSNS
	RandomWS
	LifelineWS
	numKinds
)

var kindNames = [...]string{
	X10WS:      "X10WS",
	DistWS:     "DistWS",
	DistWSNS:   "DistWS-NS",
	RandomWS:   "RandomWS",
	LifelineWS: "LifelineWS",
}

// String returns the paper's name for the policy.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k names a defined policy.
func Valid(k Kind) bool { return k < numKinds }

// Kinds lists all policies in presentation order.
func Kinds() []Kind {
	return []Kind{X10WS, DistWS, DistWSNS, RandomWS, LifelineWS}
}

// Parse resolves a case-insensitive policy name ("x10ws", "distws",
// "distws-ns", "random", "lifeline"; "randomws" and "lifelinews" are the
// String spellings).
func Parse(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "x10ws":
		return X10WS, nil
	case "distws":
		return DistWS, nil
	case "distws-ns":
		return DistWSNS, nil
	case "randomws", "random":
		return RandomWS, nil
	case "lifelinews", "lifeline":
		return LifelineWS, nil
	default:
		names := make([]string, 0, numKinds)
		for _, k := range Kinds() {
			names = append(names, strings.ToLower(k.String()))
		}
		return 0, fmt.Errorf("sched: unknown policy %q (want one of %s)", s, strings.Join(names, ", "))
	}
}

// Target says which deque flavour a freshly spawned task lands in.
type Target uint8

const (
	// TargetPrivate maps the task to a worker's private deque at its home
	// place: local LIFO execution, stealable only by co-located workers.
	TargetPrivate Target = iota
	// TargetShared maps the task to the home place's shared FIFO deque:
	// available to local workers and to remote thieves.
	TargetShared
)

// PlaceLoad is the runtime load information Algorithm 1 consults when
// mapping a flexible task (paper §V-B1): whether the place has running
// activities, how many workers are idle, and how much room remains before
// the dynamic-thread ceiling.
type PlaceLoad struct {
	Active     bool // place has at least one running activity
	Spares     int  // workers currently idle / searching for work
	Size       int  // running + queued activities at the place
	MaxThreads int  // upper bound on concurrent activities per place
}

// MapTask implements the task-mapping half of Algorithm 1 (lines 1–8) for
// every policy. seq is a monotonically increasing per-place spawn counter
// used only by DistWS-NS's round-robin mapping.
func MapTask(k Kind, class task.Class, load PlaceLoad, seq uint64) Target {
	switch k {
	case X10WS:
		// Stock X10: every task goes to a private deque; there is no
		// shared deque and no distributed stealing.
		return TargetPrivate
	case DistWS:
		if class == task.Sensitive {
			return TargetPrivate
		}
		// Lines 5–8: on an idle or under-utilized place, map even a
		// flexible task to a private deque — it prioritizes local cores
		// and spares idle local workers a steal through the shared deque.
		if !load.Active || load.Spares > 0 || load.Size < load.MaxThreads {
			return TargetPrivate
		}
		return TargetShared
	case DistWSNS:
		// §VIII-Q3: for a fair non-selective comparison, tasks alternate
		// between private and shared deques regardless of classification,
		// so both local and remote execution opportunities exist.
		if seq%2 == 0 {
			return TargetShared
		}
		return TargetPrivate
	case RandomWS, LifelineWS:
		// Classic distributed stealing: one stealable pool per place.
		return TargetShared
	default:
		panic(fmt.Sprintf("sched: MapTask on invalid policy %v", k))
	}
}

// RemoteStealing reports whether policy k performs cross-place steals.
func RemoteStealing(k Kind) bool { return k != X10WS }

// RemoteChunk returns how many tasks a distributed steal takes at once.
// The paper's empirical sweet spot is 2 for both structured and bursty
// task graphs (§V-B3); the UTS baselines steal single tasks. An
// intra-place steal always takes one task, in both engines (§V-B3:
// stealing several locally showed no improvement).
func RemoteChunk(k Kind) int {
	switch k {
	case DistWS, DistWSNS:
		return 2
	case RandomWS, LifelineWS:
		return 1
	default:
		return 0
	}
}

// StealHalf returns how many tasks a remote thief takes from a flexible
// queue of n under the relaxed kind's steal-half chunking (WSPDR style):
// half the queue rounded up, so a victim with any flexible work gives at
// least one task and the two sides end up balanced. Unlike RemoteChunk's
// fixed sizes, the take scales with the victim's actual surplus — deep
// queues split in one round trip.
func StealHalf(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + 1) / 2
}

// AppendVictimOrder appends to dst the order in which a thief at place
// self probes the other places' shared deques and returns the extended
// slice. DistWS and DistWS-NS sweep all places in a randomized order (the
// thief tracks visited places per Algorithm 1 lines 22–29); RandomWS and
// LifelineWS sample victims uniformly at random with replacement, which is
// modelled here as a random permutation as well. The appended order never
// contains self and covers every other place exactly once; it is empty for
// a single place or a policy without remote stealing. Callers run one
// sweep per failed steal, so they pass a scratch buffer to reuse.
func AppendVictimOrder(dst []int, k Kind, self, places int, rng *rand.Rand) []int {
	if places <= 1 || !RemoteStealing(k) {
		return dst
	}
	start := len(dst)
	for p := 0; p < places; p++ {
		if p != self {
			dst = append(dst, p)
		}
	}
	order := dst[start:]
	rng.Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	return dst
}

// Lifelines returns the outgoing lifeline edges of place self in a
// hypercube lifeline graph over places nodes (Saraswat et al.): neighbours
// obtained by flipping each bit position below the next power of two,
// skipping non-existent nodes.
func Lifelines(self, places int) []int {
	if places <= 1 {
		return nil
	}
	var out []int
	for bit := 1; bit < places; bit <<= 1 {
		n := self ^ bit
		if n < places {
			out = append(out, n)
		}
	}
	return out
}

// FailedStealQuiesceThreshold returns after how many consecutive failed
// steal sweeps a place marks itself idle (paper §VI-B: n, the number of
// worker threads per place).
func FailedStealQuiesceThreshold(workersPerPlace int) int {
	if workersPerPlace < 1 {
		return 1
	}
	return workersPerPlace
}
