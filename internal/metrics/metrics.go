// Package metrics provides the lock-free counters shared by the real
// runtime (internal/core) and the cluster simulator (internal/sim), and
// the summaries of a per-place utilization series (Fig. 7), which each
// engine measures itself.
//
// The counter set mirrors the quantities reported in the paper's
// evaluation: local and remote steal counts (Fig. 3), messages and bytes
// transmitted across nodes (Table III), cache misses and references
// (Table II).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Counters aggregates the scheduler- and transport-level event counts for a
// single run. All methods are safe for concurrent use; the zero value is
// ready to use.
type Counters struct {
	TasksExecuted    atomic.Int64 // tasks run to completion
	TasksSpawned     atomic.Int64 // tasks created
	LocalSteals      atomic.Int64 // successful steals within a place
	RemoteSteals     atomic.Int64 // successful steals across places
	FailedSteals     atomic.Int64 // steal attempts that found nothing
	RemoteProbes     atomic.Int64 // remote steal requests sent (incl. failed)
	Messages         atomic.Int64 // messages across nodes (steal traffic + data)
	BytesTransferred atomic.Int64 // payload bytes across nodes
	CacheRefs        atomic.Int64 // modelled cache references
	CacheMisses      atomic.Int64 // modelled cache misses
	RemoteDataAccess atomic.Int64 // at() style remote reference operations
	TasksMigrated    atomic.Int64 // tasks executed away from their home place

	// Fault-tolerance counters (internal/fault): recovery must be
	// observable, so every injected or real failure the scheduler survives
	// is recorded here.
	StealTimeouts   atomic.Int64 // steal round trips that timed out
	Retries         atomic.Int64 // steal requests re-sent after a timeout
	DroppedMessages atomic.Int64 // messages lost to injected link faults
	PlacesLost      atomic.Int64 // places that crashed during the run
	TasksReExecuted atomic.Int64 // tasks re-enqueued after a place failure

	// Backpressure counts sends that found the destination inbox or link
	// queue full (see comm.ErrBackpressure): lossy steal traffic is shed,
	// reliable traffic blocks, and either way the congestion is recorded
	// here instead of disappearing silently.
	Backpressure atomic.Int64

	// Membership counters (internal/member): dynamic-membership events
	// must be observable, both for the churn chaos harness's assertions
	// and for operators of a long-lived daemon cluster.
	MembershipJoins    atomic.Int64 // places that joined at runtime
	MembershipDrains   atomic.Int64 // places that departed via graceful drain
	MembershipRejoins  atomic.Int64 // down places readmitted with a bumped incarnation
	HeartbeatMisses    atomic.Int64 // alive→suspect transitions by the failure detector
	TasksOffloaded     atomic.Int64 // queued tasks handed to survivors by a draining place
	DuplicatedMessages atomic.Int64 // messages duplicated by injected link faults

	// Service counters (internal/service): the long-lived multi-tenant
	// job surface. Per-tenant breakdowns live in service.Stats; these
	// aggregates make the service visible on the same counter line and
	// Prometheus exposition as everything else.
	JobsSubmitted atomic.Int64 // job submissions that reached the front door
	JobsAdmitted  atomic.Int64 // submissions accepted by admission control
	JobsRejected  atomic.Int64 // submissions nacked (rate, quota, draining, ...)
	JobsCompleted atomic.Int64 // admitted jobs completed and acked to a client

	// Relaxed-deque counter (deque.KindRelaxed): multiplicity makes
	// duplicate takes legal, so their rate must be observable.
	DuplicateTakes atomic.Int64 // takes discarded by dispatch-level dedup
}

// Snapshot is an immutable copy of a Counters at one instant.
type Snapshot struct {
	TasksExecuted    int64
	TasksSpawned     int64
	LocalSteals      int64
	RemoteSteals     int64
	FailedSteals     int64
	RemoteProbes     int64
	Messages         int64
	BytesTransferred int64
	CacheRefs        int64
	CacheMisses      int64
	RemoteDataAccess int64
	TasksMigrated    int64
	StealTimeouts    int64
	Retries          int64
	DroppedMessages  int64
	PlacesLost       int64
	TasksReExecuted  int64
	Backpressure     int64

	MembershipJoins    int64
	MembershipDrains   int64
	MembershipRejoins  int64
	HeartbeatMisses    int64
	TasksOffloaded     int64
	DuplicatedMessages int64

	JobsSubmitted int64
	JobsAdmitted  int64
	JobsRejected  int64
	JobsCompleted int64

	DuplicateTakes int64
}

// Snapshot returns a consistent-enough point-in-time copy of the counters.
// Individual fields are loaded atomically; the set as a whole is not a
// linearizable snapshot, which is fine for end-of-run reporting.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		TasksExecuted:    c.TasksExecuted.Load(),
		TasksSpawned:     c.TasksSpawned.Load(),
		LocalSteals:      c.LocalSteals.Load(),
		RemoteSteals:     c.RemoteSteals.Load(),
		FailedSteals:     c.FailedSteals.Load(),
		RemoteProbes:     c.RemoteProbes.Load(),
		Messages:         c.Messages.Load(),
		BytesTransferred: c.BytesTransferred.Load(),
		CacheRefs:        c.CacheRefs.Load(),
		CacheMisses:      c.CacheMisses.Load(),
		RemoteDataAccess: c.RemoteDataAccess.Load(),
		TasksMigrated:    c.TasksMigrated.Load(),
		StealTimeouts:    c.StealTimeouts.Load(),
		Retries:          c.Retries.Load(),
		DroppedMessages:  c.DroppedMessages.Load(),
		PlacesLost:       c.PlacesLost.Load(),
		TasksReExecuted:  c.TasksReExecuted.Load(),
		Backpressure:     c.Backpressure.Load(),

		MembershipJoins:    c.MembershipJoins.Load(),
		MembershipDrains:   c.MembershipDrains.Load(),
		MembershipRejoins:  c.MembershipRejoins.Load(),
		HeartbeatMisses:    c.HeartbeatMisses.Load(),
		TasksOffloaded:     c.TasksOffloaded.Load(),
		DuplicatedMessages: c.DuplicatedMessages.Load(),

		JobsSubmitted: c.JobsSubmitted.Load(),
		JobsAdmitted:  c.JobsAdmitted.Load(),
		JobsRejected:  c.JobsRejected.Load(),
		JobsCompleted: c.JobsCompleted.Load(),

		DuplicateTakes: c.DuplicateTakes.Load(),
	}
}

// Steals returns the total number of successful steal operations.
func (s Snapshot) Steals() int64 { return s.LocalSteals + s.RemoteSteals }

// StealsToTaskRatio returns steals divided by executed tasks, the quantity
// plotted in Fig. 3. It returns 0 when no tasks ran.
func (s Snapshot) StealsToTaskRatio() float64 {
	if s.TasksExecuted == 0 {
		return 0
	}
	return float64(s.Steals()) / float64(s.TasksExecuted)
}

// CacheMissRate returns modelled misses per reference in percent (Table II).
func (s Snapshot) CacheMissRate() float64 {
	if s.CacheRefs == 0 {
		return 0
	}
	return 100 * float64(s.CacheMisses) / float64(s.CacheRefs)
}

// Spread summarizes a utilization series: min, max, mean, and the
// max-min disparity the paper quotes (≈35 % for X10WS, ≈13 % for DistWS).
type Spread struct {
	Min, Max, Mean, Disparity float64
}

// Summarize computes the Spread of a utilization series.
func Summarize(fractions []float64) Spread {
	if len(fractions) == 0 {
		return Spread{}
	}
	sp := Spread{Min: fractions[0], Max: fractions[0]}
	var sum float64
	for _, f := range fractions {
		if f < sp.Min {
			sp.Min = f
		}
		if f > sp.Max {
			sp.Max = f
		}
		sum += f
	}
	sp.Mean = sum / float64(len(fractions))
	sp.Disparity = sp.Max - sp.Min
	return sp
}

// Variance returns the population variance of the series, matching the
// paper's "average variance in node utilization" phrasing.
func Variance(fractions []float64) float64 {
	if len(fractions) == 0 {
		return 0
	}
	mean := Summarize(fractions).Mean
	var acc float64
	for _, f := range fractions {
		d := f - mean
		acc += d * d
	}
	return acc / float64(len(fractions))
}

// FormatSeries renders a utilization series compactly, sorted by place id.
func FormatSeries(fractions []float64) string {
	idx := make([]int, len(fractions))
	for i := range idx {
		idx[i] = i
	}
	sort.Ints(idx)
	var b strings.Builder
	for i, id := range idx {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "p%d=%.1f%%", id, fractions[id])
	}
	return b.String()
}
