package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the exposition's metric names and order.
// The live /metrics endpoint is a public contract scraped by external
// tooling: fields may be appended, never renamed or reordered. If this
// test fails because you added a counter, append its line at the end.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := (Snapshot{}).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{
		"distws_tasks_executed_total",
		"distws_tasks_spawned_total",
		"distws_local_steals_total",
		"distws_remote_steals_total",
		"distws_failed_steals_total",
		"distws_remote_probes_total",
		"distws_messages_total",
		"distws_bytes_transferred_total",
		"distws_cache_refs_total",
		"distws_cache_misses_total",
		"distws_remote_data_accesses_total",
		"distws_tasks_migrated_total",
		"distws_steal_timeouts_total",
		"distws_steal_retries_total",
		"distws_dropped_messages_total",
		"distws_places_lost_total",
		"distws_tasks_reexecuted_total",
		"distws_backpressure_total",
		"distws_membership_joins_total",
		"distws_membership_drains_total",
		"distws_membership_rejoins_total",
		"distws_heartbeat_misses_total",
		"distws_tasks_offloaded_total",
		"distws_duplicated_messages_total",
		"distws_jobs_submitted_total",
		"distws_jobs_admitted_total",
		"distws_jobs_rejected_total",
		"distws_jobs_completed_total",
		"distws_duplicate_takes_total",
	}
	if len(names) != len(want) {
		t.Fatalf("exposition has %d samples, want %d:\n%v", len(names), len(want), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("sample %d = %q, want %q (names and order are pinned)", i, names[i], want[i])
		}
	}
}

func TestPrometheusFormatShape(t *testing.T) {
	var s Snapshot
	s.TasksExecuted = 7
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP distws_tasks_executed_total ",
		"# TYPE distws_tasks_executed_total counter\n",
		"\ndistws_tasks_executed_total 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestUtilizationPrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteUtilizationPrometheus(&buf, []float64{99.5, 0}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE distws_place_busy_fraction_percent gauge",
		`distws_place_busy_fraction_percent{place="0"} 99.5`,
		`distws_place_busy_fraction_percent{place="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("gauge exposition missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteUtilizationPrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty fractions emitted %q", buf.String())
	}
}

// TestConcurrentIncrementWhileExposing exercises the scrape path under
// concurrent counter increments — the live-endpoint access pattern.
// Run under -race.
func TestConcurrentIncrementWhileExposing(t *testing.T) {
	const goroutines, increments = 4, 5000
	var ctrs Counters
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < increments; j++ {
				ctrs.TasksExecuted.Add(1)
				ctrs.RemoteSteals.Add(1)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		var buf bytes.Buffer
		if err := ctrs.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := ctrs.Snapshot().TasksExecuted; got != goroutines*increments {
		t.Fatalf("TasksExecuted = %d, want %d", got, goroutines*increments)
	}
}
