package service

import (
	"math"
	"strings"
	"testing"
)

// TestTenantPrometheusGolden pins the per-tenant exposition byte for
// byte: the /metrics endpoint is a public contract, so any rename,
// reorder, or format drift must fail here. New series may only be
// appended.
func TestTenantPrometheusGolden(t *testing.T) {
	s := NewStats()
	t1 := s.Tenant(1)
	t1.Submitted.Store(3)
	t1.Admitted.Store(2)
	t1.Rejected.Store(1)
	t1.Completed.Store(2)
	t1.QueueWait.Record(100) // bucket [64,128) -> bound 128
	t1.Latency.Record(1000)  // bucket [512,1024) -> bound 1024
	t1.Latency.Record(1000)
	t2 := s.Tenant(2)
	t2.Submitted.Store(1)
	t2.Rejected.Store(1)

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP distws_tenant_jobs_submitted_total Job submissions per tenant.
# TYPE distws_tenant_jobs_submitted_total counter
distws_tenant_jobs_submitted_total{tenant="1"} 3
distws_tenant_jobs_submitted_total{tenant="2"} 1
# HELP distws_tenant_jobs_admitted_total Jobs past admission control per tenant.
# TYPE distws_tenant_jobs_admitted_total counter
distws_tenant_jobs_admitted_total{tenant="1"} 2
distws_tenant_jobs_admitted_total{tenant="2"} 0
# HELP distws_tenant_jobs_rejected_total Jobs nacked by admission control per tenant.
# TYPE distws_tenant_jobs_rejected_total counter
distws_tenant_jobs_rejected_total{tenant="1"} 1
distws_tenant_jobs_rejected_total{tenant="2"} 1
# HELP distws_tenant_jobs_completed_total Jobs completed and acked per tenant.
# TYPE distws_tenant_jobs_completed_total counter
distws_tenant_jobs_completed_total{tenant="1"} 2
distws_tenant_jobs_completed_total{tenant="2"} 0
# HELP distws_tenant_jobs_expired_total Jobs dropped at their deadline per tenant.
# TYPE distws_tenant_jobs_expired_total counter
distws_tenant_jobs_expired_total{tenant="1"} 0
distws_tenant_jobs_expired_total{tenant="2"} 0
# HELP distws_tenant_queue_wait_ns Admission-to-dispatch wait per tenant (log2-bucket quantile upper bounds).
# TYPE distws_tenant_queue_wait_ns summary
distws_tenant_queue_wait_ns{tenant="1",quantile="0.5"} 128
distws_tenant_queue_wait_ns{tenant="1",quantile="0.99"} 128
distws_tenant_queue_wait_ns{tenant="1",quantile="0.999"} 128
distws_tenant_queue_wait_ns{tenant="2",quantile="0.5"} 0
distws_tenant_queue_wait_ns{tenant="2",quantile="0.99"} 0
distws_tenant_queue_wait_ns{tenant="2",quantile="0.999"} 0
# HELP distws_tenant_latency_ns Submission-to-completion latency per tenant (log2-bucket quantile upper bounds).
# TYPE distws_tenant_latency_ns summary
distws_tenant_latency_ns{tenant="1",quantile="0.5"} 1024
distws_tenant_latency_ns{tenant="1",quantile="0.99"} 1024
distws_tenant_latency_ns{tenant="1",quantile="0.999"} 1024
distws_tenant_latency_ns{tenant="2",quantile="0.5"} 0
distws_tenant_latency_ns{tenant="2",quantile="0.99"} 0
distws_tenant_latency_ns{tenant="2",quantile="0.999"} 0
`
	if got := b.String(); got != want {
		t.Errorf("tenant exposition drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTenantPrometheusEmpty pins that an untouched registry writes no
// series at all (a fresh daemon's /metrics has no tenant block yet).
func TestTenantPrometheusEmpty(t *testing.T) {
	var b strings.Builder
	if err := NewStats().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry wrote %q", b.String())
	}
}

// TestJainIndex pins the fairness index at its landmarks.
func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("one-hot shares: %v, want 1/3", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("empty shares: %v, want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero shares: %v, want 0", got)
	}
}
