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

	// Reclassifications counts online task-kind classification flips by
	// the adapt controller (the `adaptive` policy). Zero under every
	// annotated policy.
	Reclassifications atomic.Int64

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

	// Relaxed-deque counters (deque.KindRelaxed + receiver-initiated
	// stealing): multiplicity makes duplicate takes legal, so their rate
	// must be observable, as must the donation traffic that replaces
	// shared-deque polling.
	DuplicateTakes atomic.Int64 // takes discarded by dispatch-level dedup
	Donations      atomic.Int64 // steal-half donations served to a requester
	StealRequests  atomic.Int64 // receiver-initiated requests posted to mailboxes

	// Dataflow-DAG counters (internal/dag): the data-aware scheduler's
	// effectiveness is exactly the hit/miss split on input-block
	// residency, so both sides — and the bytes the misses moved — are
	// first-class observables.
	DAGTasksReleased  atomic.Int64 // tasks released by their last dependency completing
	DAGResidentHits   atomic.Int64 // input blocks already resident at the executing place
	DAGResidentMisses atomic.Int64 // input blocks fetched from another place
	DAGFetchedBytes   atomic.Int64 // bytes moved by resident misses
}

// Snapshot is an immutable copy of a Counters at one instant.
type Snapshot struct {
	TasksExecuted     int64
	TasksSpawned      int64
	LocalSteals       int64
	RemoteSteals      int64
	FailedSteals      int64
	RemoteProbes      int64
	Messages          int64
	BytesTransferred  int64
	CacheRefs         int64
	CacheMisses       int64
	RemoteDataAccess  int64
	TasksMigrated     int64
	StealTimeouts     int64
	Retries           int64
	DroppedMessages   int64
	PlacesLost        int64
	TasksReExecuted   int64
	Backpressure      int64
	Reclassifications int64

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
	Donations      int64
	StealRequests  int64

	DAGTasksReleased  int64
	DAGResidentHits   int64
	DAGResidentMisses int64
	DAGFetchedBytes   int64
}

// Snapshot returns a consistent-enough point-in-time copy of the counters.
// Individual fields are loaded atomically; the set as a whole is not a
// linearizable snapshot, which is fine for end-of-run reporting.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		TasksExecuted:     c.TasksExecuted.Load(),
		TasksSpawned:      c.TasksSpawned.Load(),
		LocalSteals:       c.LocalSteals.Load(),
		RemoteSteals:      c.RemoteSteals.Load(),
		FailedSteals:      c.FailedSteals.Load(),
		RemoteProbes:      c.RemoteProbes.Load(),
		Messages:          c.Messages.Load(),
		BytesTransferred:  c.BytesTransferred.Load(),
		CacheRefs:         c.CacheRefs.Load(),
		CacheMisses:       c.CacheMisses.Load(),
		RemoteDataAccess:  c.RemoteDataAccess.Load(),
		TasksMigrated:     c.TasksMigrated.Load(),
		StealTimeouts:     c.StealTimeouts.Load(),
		Retries:           c.Retries.Load(),
		DroppedMessages:   c.DroppedMessages.Load(),
		PlacesLost:        c.PlacesLost.Load(),
		TasksReExecuted:   c.TasksReExecuted.Load(),
		Backpressure:      c.Backpressure.Load(),
		Reclassifications: c.Reclassifications.Load(),

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
		Donations:      c.Donations.Load(),
		StealRequests:  c.StealRequests.Load(),

		DAGTasksReleased:  c.DAGTasksReleased.Load(),
		DAGResidentHits:   c.DAGResidentHits.Load(),
		DAGResidentMisses: c.DAGResidentMisses.Load(),
		DAGFetchedBytes:   c.DAGFetchedBytes.Load(),
	}
}

// DAGResidencyRate returns the fraction of DAG input-block lookups that
// found the block already resident, in percent. Zero when no DAG ran.
func (s Snapshot) DAGResidencyRate() float64 {
	total := s.DAGResidentHits + s.DAGResidentMisses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.DAGResidentHits) / float64(total)
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

// String renders the snapshot as a single human-readable line. Fault
// counters are appended only when the run actually saw failures, keeping
// fault-free output identical to the original format.
func (s Snapshot) String() string {
	base := fmt.Sprintf(
		"tasks=%d spawned=%d steals(local=%d remote=%d failed=%d) msgs=%d bytes=%d missRate=%.2f%% migrated=%d",
		s.TasksExecuted, s.TasksSpawned, s.LocalSteals, s.RemoteSteals,
		s.FailedSteals, s.Messages, s.BytesTransferred, s.CacheMissRate(),
		s.TasksMigrated)
	if s.Reclassifications > 0 {
		base += fmt.Sprintf(" reclass=%d", s.Reclassifications)
	}
	if s.Backpressure > 0 {
		base += fmt.Sprintf(" backpressure=%d", s.Backpressure)
	}
	if s.StealRequests > 0 || s.Donations > 0 || s.DuplicateTakes > 0 {
		base += fmt.Sprintf(" receiver(requests=%d donations=%d dupTakes=%d)",
			s.StealRequests, s.Donations, s.DuplicateTakes)
	}
	if s.DAGTasksReleased > 0 {
		base += fmt.Sprintf(" dag(released=%d hits=%d misses=%d fetchedBytes=%d)",
			s.DAGTasksReleased, s.DAGResidentHits, s.DAGResidentMisses, s.DAGFetchedBytes)
	}
	if s.JobsSubmitted > 0 {
		base += fmt.Sprintf(" jobs(submitted=%d admitted=%d rejected=%d completed=%d)",
			s.JobsSubmitted, s.JobsAdmitted, s.JobsRejected, s.JobsCompleted)
	}
	if s.MembershipJoins > 0 || s.MembershipDrains > 0 || s.MembershipRejoins > 0 ||
		s.HeartbeatMisses > 0 || s.TasksOffloaded > 0 {
		base += fmt.Sprintf(
			" membership(joins=%d drains=%d rejoins=%d hbMisses=%d offloaded=%d)",
			s.MembershipJoins, s.MembershipDrains, s.MembershipRejoins,
			s.HeartbeatMisses, s.TasksOffloaded)
	}
	if s.StealTimeouts == 0 && s.Retries == 0 && s.DroppedMessages == 0 &&
		s.PlacesLost == 0 && s.TasksReExecuted == 0 && s.DuplicatedMessages == 0 {
		return base
	}
	return base + fmt.Sprintf(
		" faults(timeouts=%d retries=%d dropped=%d duplicated=%d placesLost=%d reExecuted=%d)",
		s.StealTimeouts, s.Retries, s.DroppedMessages, s.DuplicatedMessages,
		s.PlacesLost, s.TasksReExecuted)
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
