package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"distws/internal/metrics"
)

func startTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerMetricsEndpoint(t *testing.T) {
	s := startTestServer(t)
	base := "http://" + s.Addr()

	// Before any source is attached scrapes succeed with a comment.
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "no metrics source") {
		t.Fatalf("unattached /metrics = %d %q", code, body)
	}

	var ctrs metrics.Counters
	ctrs.TasksExecuted.Add(42)
	s.SetMetricsSource(ctrs.Snapshot)
	s.SetUtilizationSource(func() []float64 { return []float64{12.5, 50} })
	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"distws_tasks_executed_total 42",
		`distws_place_busy_fraction_percent{place="1"} 50`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServerTraceEndpoint(t *testing.T) {
	s := startTestServer(t)
	base := "http://" + s.Addr()

	// No recorder attached: 404, not a hang or a panic.
	if code, _ := get(t, base+"/trace"); code != http.StatusNotFound {
		t.Fatalf("unattached /trace = %d, want 404", code)
	}

	clk := &manualClock{}
	rec := NewRecorder(RecorderOptions{})
	rec.Configure(2, 1, clk.Now, VirtualNS)
	rec.Record(0, 0, KindTaskStart, 1, 0, 0)
	clk.now = 100
	rec.Record(0, 0, KindTaskEnd, 1, 0, 0)
	s.SetRecorder(rec)

	code, body := get(t, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d", code)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/trace default (chrome) is not valid JSON: %v", err)
	}

	code, body = get(t, base+"/trace?format=events")
	if code != http.StatusOK {
		t.Fatalf("/trace?format=events = %d", code)
	}
	td, err := ReadEvents(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/trace?format=events unreadable: %v", err)
	}
	if len(td.Events) != 2 {
		t.Fatalf("event dump has %d events, want 2", len(td.Events))
	}

	if code, _ := get(t, base+"/trace?format=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus format = %d, want 400", code)
	}
}

func TestServerPprofIndex(t *testing.T) {
	s := startTestServer(t)
	code, body := get(t, fmt.Sprintf("http://%s/debug/pprof/", s.Addr()))
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d (goroutine profile listed: %v)",
			code, strings.Contains(body, "goroutine"))
	}
}

func TestServerNilSafety(t *testing.T) {
	var s *Server
	s.SetMetricsSource(nil)
	s.SetUtilizationSource(nil)
	s.SetRecorder(nil)
	if err := s.Close(); err != nil {
		t.Fatalf("nil server Close = %v", err)
	}
}
