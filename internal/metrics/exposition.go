package metrics

import (
	"fmt"
	"io"
)

// expoField is one exported counter: Prometheus metric name, help text,
// and the accessor into a Snapshot. The slice order is the exposition
// order; both names and order are pinned by a golden test because the
// live /metrics endpoint (internal/obs) is scraped by external tooling
// and must stay stable.
var expoFields = []struct {
	name string
	help string
	get  func(Snapshot) int64
}{
	{"distws_tasks_executed_total", "Tasks run to completion.", func(s Snapshot) int64 { return s.TasksExecuted }},
	{"distws_tasks_spawned_total", "Tasks created.", func(s Snapshot) int64 { return s.TasksSpawned }},
	{"distws_local_steals_total", "Successful steals within a place.", func(s Snapshot) int64 { return s.LocalSteals }},
	{"distws_remote_steals_total", "Successful steals across places.", func(s Snapshot) int64 { return s.RemoteSteals }},
	{"distws_failed_steals_total", "Steal sweeps that found nothing.", func(s Snapshot) int64 { return s.FailedSteals }},
	{"distws_remote_probes_total", "Remote steal requests sent (incl. failed).", func(s Snapshot) int64 { return s.RemoteProbes }},
	{"distws_messages_total", "Messages across nodes (steal traffic + data).", func(s Snapshot) int64 { return s.Messages }},
	{"distws_bytes_transferred_total", "Payload bytes across nodes.", func(s Snapshot) int64 { return s.BytesTransferred }},
	{"distws_cache_refs_total", "Modelled cache references.", func(s Snapshot) int64 { return s.CacheRefs }},
	{"distws_cache_misses_total", "Modelled cache misses.", func(s Snapshot) int64 { return s.CacheMisses }},
	{"distws_remote_data_accesses_total", "Remote at()-style reference operations.", func(s Snapshot) int64 { return s.RemoteDataAccess }},
	{"distws_tasks_migrated_total", "Tasks executed away from their home place.", func(s Snapshot) int64 { return s.TasksMigrated }},
	{"distws_steal_timeouts_total", "Steal round trips that timed out.", func(s Snapshot) int64 { return s.StealTimeouts }},
	{"distws_steal_retries_total", "Steal requests re-sent after a timeout.", func(s Snapshot) int64 { return s.Retries }},
	{"distws_dropped_messages_total", "Messages lost to injected link faults.", func(s Snapshot) int64 { return s.DroppedMessages }},
	{"distws_places_lost_total", "Places that crashed during the run.", func(s Snapshot) int64 { return s.PlacesLost }},
	{"distws_tasks_reexecuted_total", "Tasks re-enqueued after a place failure.", func(s Snapshot) int64 { return s.TasksReExecuted }},
	{"distws_backpressure_total", "Sends that found a full inbox or link queue.", func(s Snapshot) int64 { return s.Backpressure }},
	{"distws_membership_joins_total", "Places that joined the cluster at runtime.", func(s Snapshot) int64 { return s.MembershipJoins }},
	{"distws_membership_drains_total", "Places that departed via graceful drain.", func(s Snapshot) int64 { return s.MembershipDrains }},
	{"distws_membership_rejoins_total", "Down places readmitted with a bumped incarnation.", func(s Snapshot) int64 { return s.MembershipRejoins }},
	{"distws_heartbeat_misses_total", "Alive-to-suspect transitions by the failure detector.", func(s Snapshot) int64 { return s.HeartbeatMisses }},
	{"distws_tasks_offloaded_total", "Queued tasks handed to survivors by a draining place.", func(s Snapshot) int64 { return s.TasksOffloaded }},
	{"distws_duplicated_messages_total", "Messages duplicated by injected link faults.", func(s Snapshot) int64 { return s.DuplicatedMessages }},
	{"distws_jobs_submitted_total", "Job submissions that reached the service front door.", func(s Snapshot) int64 { return s.JobsSubmitted }},
	{"distws_jobs_admitted_total", "Job submissions accepted by admission control.", func(s Snapshot) int64 { return s.JobsAdmitted }},
	{"distws_jobs_rejected_total", "Job submissions nacked by admission control.", func(s Snapshot) int64 { return s.JobsRejected }},
	{"distws_jobs_completed_total", "Admitted jobs completed and acknowledged to a client.", func(s Snapshot) int64 { return s.JobsCompleted }},
	{"distws_duplicate_takes_total", "Relaxed-deque takes discarded by dispatch-level dedup.", func(s Snapshot) int64 { return s.DuplicateTakes }},
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): one HELP line, one TYPE line, and one sample
// per counter, in a fixed order. The format is a public contract — see
// the golden test — so fields must only ever be appended.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, f := range expoFields {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			f.name, f.help, f.name, f.name, f.get(s)); err != nil {
			return err
		}
	}
	return nil
}

// WriteUtilizationPrometheus writes per-place busy fractions (percent)
// as a Prometheus gauge with a place label, complementing the counter
// exposition on live endpoints.
func WriteUtilizationPrometheus(w io.Writer, fractions []float64) error {
	if len(fractions) == 0 {
		return nil
	}
	const name = "distws_place_busy_fraction_percent"
	if _, err := fmt.Fprintf(w, "# HELP %s Per-place busy fraction of elapsed time in percent.\n# TYPE %s gauge\n", name, name); err != nil {
		return err
	}
	for p, f := range fractions {
		if _, err := fmt.Fprintf(w, "%s{place=\"%d\"} %g\n", name, p, f); err != nil {
			return err
		}
	}
	return nil
}
