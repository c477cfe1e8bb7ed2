// Package task defines the locality task model at the heart of the paper
// (§II): every task is either locality-sensitive (pinned to its home place)
// or locality-flexible (eligible for distributed stealing, the X10
// @AnyPlaceTask annotation). The package also carries the migration
// payload size the runtime's byte accounting reads, and a registry of
// named functions so tasks can be spawned across process boundaries,
// where closures cannot travel.
package task

import (
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
// accesses). The runtime uses Class for scheduling and MigrationBytes for
// the bytes a migration moves; the data footprint the cache model
// charges lives on the simulator's trace.Task.Blocks.
type Locality struct {
	Class Class
	// MigrationBytes estimates the payload copied to a thief node when the
	// task migrates (Table III byte accounting).
	MigrationBytes int
}

// Sensitive and Flexible are convenience constructors for the common case
// of a bare classification with no modelling attributes.
var (
	SensitiveLocality = Locality{Class: Sensitive}
	FlexibleLocality  = Locality{Class: Flexible}
)

// Func is a registered task's argument check. The service front door
// (service.Server) calls it on a job's argument at admission and refuses
// the job if it returns an error, so no executor is handed an argument
// its code cannot take. What the task does is the executor's own code
// (node.Executor.Run); a Func only vouches for the argument.
type Func func(arg []byte) error

// Registry maps stable names to Funcs so that a task can be shipped to
// another process as (name, payload) and recognised on arrival. A single
// process-global registry (DefaultRegistry) serves the common case; tests
// can build private registries.
type Registry struct {
	mu  sync.RWMutex
	fns map[string]Func
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fns: make(map[string]Func)} }

// DefaultRegistry is the process-global registry that service.Server and
// node.Executor use when their Registry is nil; distws-serve registers its
// task set there.
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

// Envelope is the wire representation of a task spawned across a process
// boundary: the registered function name, its encoded argument, and the
// scheduling metadata the destination needs to map it (Algorithm 1).
type Envelope struct {
	Name   string
	Arg    []byte
	Home   int   // destination place
	Origin int   // spawning place
	Class  Class // locality classification
	// Tenant tags the task's provenance in a multi-tenant service
	// (internal/service): every task a job spawns carries its tenant id,
	// so concurrent tenants' work stays attributable end to end. Zero for
	// single-tenant batch runs.
	Tenant uint32
}
