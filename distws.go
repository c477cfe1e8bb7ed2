// Package distws is a Go implementation of selective locality-aware
// distributed work-stealing, reproducing the runtime described in
//
//	Paudel, Tardieu, Amaral. "On the Merits of Distributed Work-stealing
//	on Selective Locality-aware Tasks". ICPP 2013.
//
// The library provides an X10-style APGAS programming model — places,
// async, finish, at — on top of goroutines. Tasks are classified as
// locality-sensitive (pinned to their home place; the default Async) or
// locality-flexible (AsyncAny, the paper's @AnyPlaceTask annotation).
// Under the DistWS policy, flexible tasks on saturated places are
// published in a per-place shared deque from which idle remote places
// steal chunks of two, while sensitive tasks stay in per-worker private
// deques and never migrate.
//
// # Quickstart
//
//	rt, err := distws.New(distws.Config{
//		Cluster: distws.Cluster{Places: 4, WorkersPerPlace: 2},
//		Policy:  distws.DistWS,
//	})
//	if err != nil { ... }
//	defer rt.Shutdown()
//
//	err = rt.Run(func(ctx *distws.Ctx) {
//		ctx.Finish(func(c *distws.Ctx) {
//			for p := 0; p < c.Places(); p++ {
//				c.AsyncAny(p, func(c *distws.Ctx) {
//					// coarse, self-contained work: stealable anywhere
//				})
//			}
//		})
//	})
//
// Four baseline policies ship alongside DistWS for comparison: X10WS
// (intra-place stealing only), DistWSNS (non-selective distributed
// stealing), RandomWS and LifelineWS (the UTS baselines from the paper's
// related-work study).
//
// # Cancellation
//
// RunContext bounds a run by a context: on cancellation it returns
// ctx.Err() immediately, while activities that were already spawned keep
// draining on the worker pool in the background — a cancelled run's side
// effects may therefore still complete. ShutdownContext bounds the wait
// for worker exit the same way; the stop signal itself is always
// delivered. A run on a shut-down runtime returns ErrShutdown; match it
// with errors.Is.
package distws

import (
	"distws/internal/core"
	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/task"
	"distws/internal/topology"
)

// Core runtime types. See the internal/core package for details.
type (
	// Runtime is a running APGAS instance hosting places and workers.
	Runtime = core.Runtime
	// Config parameterizes New.
	Config = core.Config
	// Ctx is the execution context every activity receives.
	Ctx = core.Ctx
	// Cluster describes places, workers per place, and the cost model.
	Cluster = topology.Cluster
	// Policy selects a scheduling algorithm.
	Policy = sched.Kind
	// Locality carries a task's full locality attributes for AsyncLoc.
	Locality = task.Locality
	// Class is the locality classification of a task.
	Class = task.Class
	// Metrics is a point-in-time snapshot of runtime counters.
	Metrics = metrics.Snapshot
	// FaultPlan injects deterministic failures (place crashes, steal
	// message loss, latency spikes) via Config.Fault. Nil means fault-free.
	FaultPlan = fault.Plan
	// Crash schedules one place failure inside a FaultPlan.
	Crash = fault.Crash
	// Partition splits the cluster into two halves for a window, healing
	// at HealNS: cross-cut steal traffic is dropped, nothing is evicted.
	Partition = fault.Partition
	// Gray degrades one directed link (or a wildcard set) with extra
	// latency for a window — slow, not dead.
	Gray = fault.Gray
	// Flap cycles one place down and up repeatedly: each down edge is a
	// crash, each up edge a rejoin with fresh workers.
	Flap = fault.Flap
	// Join brings an initially absent place into the cluster mid-run.
	Join = fault.Join
	// Drain departs a place gracefully mid-run: queued work is offloaded
	// to survivors, nothing is re-executed or counted lost.
	Drain = fault.Drain
	// FaultLink overrides drop/spike behaviour for one directed link.
	FaultLink = fault.Link
	// TraceRecorder collects per-worker scheduling events when attached
	// via Config.Recorder; export with its Snapshot method after the run.
	TraceRecorder = obs.Recorder
	// TraceRecorderOptions tunes a TraceRecorder (ring capacity).
	TraceRecorderOptions = obs.RecorderOptions
	// DequeKind selects the worker-queue implementation (Config.Deque).
	DequeKind = deque.Kind
)

// Worker-queue kinds for Config.Deque.
const (
	// DequeMutex is the paper-faithful default: mutex-guarded deques with
	// an observable lock.
	DequeMutex = deque.KindMutex
	// DequeChaseLev swaps in lock-free Chase–Lev deques: owner push/pop
	// without locks, one CAS per steal, exactly-once hand-off.
	DequeChaseLev = deque.KindChaseLev
	// DequeRelaxed gives each worker a Chase–Lev private deque and a
	// fence-free FIFO queue of flexible tasks with multiplicity semantics
	// (a task may rarely be handed out twice; the runtime dedups at
	// dispatch); a remote thief takes the older half of one victim
	// worker's flexible queue.
	DequeRelaxed = deque.KindRelaxed
)

// ErrShutdown is returned by Run/RunContext on a shut-down runtime. Match
// with errors.Is; see the package comment's Cancellation section.
var ErrShutdown = core.ErrShutdown

// Scheduling policies.
const (
	// X10WS is the stock X10 scheduler: help-first work stealing within a
	// place, no distributed steals.
	X10WS = sched.X10WS
	// DistWS is the paper's contribution: distributed stealing restricted
	// to locality-flexible tasks.
	DistWS = sched.DistWS
	// DistWSNS is the non-selective ablation: any task may be stolen.
	DistWSNS = sched.DistWSNS
	// RandomWS is classic randomized distributed work stealing.
	RandomWS = sched.RandomWS
	// LifelineWS is lifeline-graph based global load balancing.
	LifelineWS = sched.LifelineWS
)

// Task classifications.
const (
	// Sensitive tasks never leave their home place.
	Sensitive = task.Sensitive
	// Flexible tasks may be stolen by any place (@AnyPlaceTask).
	Flexible = task.Flexible
)

// New starts a runtime; pair with Runtime.Shutdown.
func New(cfg Config) (*Runtime, error) { return core.New(cfg) }

// NewTraceRecorder returns a scheduling-event recorder for
// Config.Recorder. Tracing is off unless one is attached; a recording
// runtime stamps events with wall-clock nanoseconds since New.
func NewTraceRecorder(opts TraceRecorderOptions) *TraceRecorder { return obs.NewRecorder(opts) }

// ParsePolicy resolves a case-insensitive policy name such as "distws",
// "x10ws", "distws-ns", "random", or "lifeline".
func ParsePolicy(s string) (Policy, error) { return sched.Parse(s) }

// ParseDequeKind resolves a case-insensitive worker-queue kind name:
// "mutex", "chaselev", or "relaxed".
func ParseDequeKind(s string) (DequeKind, error) { return deque.ParseKind(s) }

// PaperCluster returns the evaluation platform of the paper (§VII):
// 16 places × 8 workers = 128 workers.
func PaperCluster() Cluster { return topology.Paper() }

// LaptopCluster returns a small host-friendly cluster (4 places × 2
// workers) for examples and tests.
func LaptopCluster() Cluster { return topology.Laptop() }
