package deque

import (
	"fmt"
	"strings"
)

// Kind selects the work-queue implementation workers schedule from. It is
// the axis of the paper's §V synchronization discussion made configurable:
// how much a steal interrupts the victim, and what the victim pays on its
// own hot path, are properties of the queue, not of the policy.
type Kind uint8

const (
	// KindMutex is the paper-faithful default: a mutex-guarded deque with
	// an observable lock — exactly the structure whose contention the
	// paper's selective design reasons about.
	KindMutex Kind = iota
	// KindChaseLev is the classic lock-free deque of Chase and Lev (SPAA
	// 2005): owner push/pop without locks, one CAS per steal. Steals are
	// linearizable; no task is ever handed out twice.
	KindChaseLev
	// KindRelaxed is the fence-free FIFO queue with multiplicity of
	// Castañeda and Piña (arXiv:2008.04424): no locks and no
	// read-modify-write anywhere — owner and thieves synchronize through
	// plain atomic reads and writes only, and all of them take the oldest
	// element. The relaxation: under a race a task may be taken twice,
	// and the scheduler dedups at dispatch (the runtime claims each task
	// once). Selecting this kind gives each runtime worker such a queue
	// for its flexible tasks beside a ChaseLev private deque, and remote
	// thieves take steal-half from those queues (see internal/core): the
	// lock-guarded per-place shared structure disappears from the hot
	// path entirely.
	KindRelaxed
	numKinds
)

var kindNames = [...]string{
	KindMutex:    "mutex",
	KindChaseLev: "chaselev",
	KindRelaxed:  "relaxed",
}

// String returns the canonical flag spelling of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k names a defined queue kind.
func (k Kind) Valid() bool { return k < numKinds }

// Kinds lists all queue kinds in presentation order.
func Kinds() []Kind { return []Kind{KindMutex, KindChaseLev, KindRelaxed} }

// KindNames lists the canonical flag spellings, derived from the registry
// so CLI help and validation stay in sync with the implementations.
func KindNames() []string {
	ks := Kinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.String()
	}
	return out
}

// ParseKind resolves a case-insensitive queue-kind name ("mutex",
// "chaselev", "relaxed").
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "mutex":
		return KindMutex, nil
	case "chaselev":
		return KindChaseLev, nil
	case "relaxed":
		return KindRelaxed, nil
	default:
		return 0, fmt.Errorf("deque: unknown queue kind %q (want %s)",
			s, strings.Join(KindNames(), ", "))
	}
}

// WorkQueue is the queue a worker schedules from: the owner pushes at the
// bottom and takes with Pop; thieves take the oldest element from the top
// with Steal. Pop is LIFO on the strict kinds (maximizing cache reuse of
// the most recently spawned task) and oldest-first, the same take as
// Steal, on KindRelaxed. Push and Pop are owner-side operations —
// KindMutex tolerates any caller, the lock-free kinds require a single
// owner goroutine; Steal and Len are safe from any goroutine on every
// kind.
//
// KindRelaxed also weakens the exactly-once guarantee: two racing takes
// may return the same element (multiplicity), and a late one may
// re-deliver elements taken since. Callers selecting it must dedup at
// dispatch; no element is ever lost.
type WorkQueue[T any] interface {
	Push(T)
	Pop() (T, bool)
	Steal() (T, bool)
	Len() int
}

// New returns an empty work queue of the requested kind.
func New[T any](k Kind) WorkQueue[T] {
	switch k {
	case KindMutex:
		return &Private[T]{}
	case KindChaseLev:
		return NewChaseLev[T]()
	case KindRelaxed:
		return NewRelaxed[T]()
	default:
		panic(fmt.Sprintf("deque: New on invalid kind %v", k))
	}
}
