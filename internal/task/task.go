// Package task defines the locality task model at the heart of the paper
// (§II): every task is either locality-sensitive (pinned to its home place)
// or locality-flexible (eligible for distributed stealing, the X10
// @AnyPlaceTask annotation). The package also carries the descriptive
// attributes the scheduler and the cache/communication models consume —
// granularity, data footprint, and migration payload size — and a registry
// of named functions so tasks can be spawned across process boundaries,
// where closures cannot travel.
package task

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// Class partitions tasks by locality preference (paper §II).
type Class uint8

const (
	// Sensitive tasks bear strong affinity to their home place and are
	// never stolen across places. They map to per-worker private deques.
	Sensitive Class = iota
	// Flexible tasks (@AnyPlaceTask) qualify for distributed stealing:
	// they encapsulate their data, are coarse enough to amortize the steal,
	// or are cache-neutral for the thief. They map to per-place shared
	// deques on fully-utilized places.
	Flexible
)

// String returns the annotation-style name of the class.
func (c Class) String() string {
	switch c {
	case Sensitive:
		return "locality-sensitive"
	case Flexible:
		return "locality-flexible"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Locality bundles the attributes that characterize a task's locality
// behaviour (paper §II: size, referenced data, spawned sub-tasks, local
// accesses). The runtime uses Class for scheduling; the cache and
// communication models use the remaining fields for accounting.
type Locality struct {
	Class Class
	// Blocks identifies the data blocks (application-defined granularity,
	// e.g. one block per cache-line-sized chunk of the working set) the
	// task touches. Used by the L1d cache model (Table II).
	Blocks []uint64
	// MigrationBytes estimates the payload copied to a thief node when the
	// task migrates (Table III byte accounting). Zero means "measure with
	// gob if accounting is enabled".
	MigrationBytes int
	// RemoteRefs is the number of remote data references the task performs
	// per execution when it runs away from its home place. Flexible tasks
	// that truly encapsulate their data have RemoteRefs == 0.
	RemoteRefs int
}

// Sensitive and Flexible are convenience constructors for the common case
// of a bare classification with no modelling attributes.
var (
	SensitiveLocality = Locality{Class: Sensitive}
	FlexibleLocality  = Locality{Class: Flexible}
)

// Func is the signature of a remotely invocable function. The argument is
// the gob-encoded payload the spawner supplied; implementations decode it
// themselves. It runs inside a worker of the destination place.
type Func func(arg []byte) error

// Registry maps stable names to Funcs so that a task can be shipped to
// another process as (name, payload) and re-bound on arrival. A single
// process-global registry (DefaultRegistry) serves the common case; tests
// can build private registries.
type Registry struct {
	mu  sync.RWMutex
	fns map[string]Func
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fns: make(map[string]Func)} }

// DefaultRegistry is the process-global registry used by the TCP transport.
var DefaultRegistry = NewRegistry()

// Register binds name to fn. It panics if the name is empty, fn is nil, or
// the name is already taken — duplicate registration is a programming
// error that would silently misroute remote spawns.
func (r *Registry) Register(name string, fn Func) {
	if name == "" {
		panic("task: Register with empty name")
	}
	if fn == nil {
		panic(fmt.Sprintf("task: Register(%q) with nil func", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fns[name]; dup {
		panic(fmt.Sprintf("task: Register(%q) called twice", name))
	}
	r.fns[name] = fn
}

// Lookup resolves a registered function by name.
func (r *Registry) Lookup(name string) (Func, bool) {
	r.mu.RLock()
	fn, ok := r.fns[name]
	r.mu.RUnlock()
	return fn, ok
}

// Len returns the number of registered functions (for diagnostics).
func (r *Registry) Len() int {
	r.mu.RLock()
	n := len(r.fns)
	r.mu.RUnlock()
	return n
}

// Envelope is the wire representation of a task spawned across a process
// boundary: the registered function name, its encoded argument, and the
// scheduling metadata the destination needs to map it (Algorithm 1).
type Envelope struct {
	Name   string
	Arg    []byte
	Home   int   // destination place
	Origin int   // spawning place
	Class  Class // locality classification
	Blocks []uint64
	// Tenant tags the task's provenance in a multi-tenant service
	// (internal/service): every task a job spawns carries its tenant id,
	// so concurrent tenants' work stays attributable end to end. Zero for
	// single-tenant batch runs.
	Tenant uint32
	// Inputs and Outputs are the dataflow block ids a DAG task
	// (internal/dag) reads and writes, so a remotely spawned dataflow
	// task carries its dependency footprint with it. Empty for fork-join
	// tasks.
	Inputs  []uint64
	Outputs []uint64
}

// GobSize returns the number of bytes v occupies when gob-encoded, used to
// account migration payload sizes (Table III). It returns 0 and an error
// for unencodable values.
func GobSize(v any) (int, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, fmt.Errorf("task: sizing value: %w", err)
	}
	return buf.Len(), nil
}
