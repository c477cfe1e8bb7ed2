package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"distws/internal/metrics"
)

// TenantStats aggregates one tenant's service-side accounting. Counter
// fields are atomics so the owning event loop increments while the HTTP
// exposition scrapes.
type TenantStats struct {
	Submitted atomic.Int64 // submissions that named this tenant
	Admitted  atomic.Int64 // submissions past admission control
	Rejected  atomic.Int64 // submissions nacked
	Completed atomic.Int64 // jobs completed and acked
	Expired   atomic.Int64 // jobs dropped at their deadline
	// QueueWait observes admission→dispatch latency per job.
	QueueWait metrics.Histogram
	// Latency observes submission→completion latency per job.
	Latency metrics.Histogram
}

// Stats is the per-tenant statistics registry of one service instance.
// Tenant entries are created lazily on first touch and never removed.
type Stats struct {
	mu      sync.Mutex
	tenants map[uint32]*TenantStats
}

// NewStats returns an empty registry.
func NewStats() *Stats { return &Stats{tenants: make(map[uint32]*TenantStats)} }

// Tenant returns the stats bucket for id, creating it if needed.
func (s *Stats) Tenant(id uint32) *TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.tenants[id]
	if st == nil {
		st = &TenantStats{}
		s.tenants[id] = st
	}
	return st
}

// ids returns the known tenant ids in ascending order.
func (s *Stats) ids() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint32, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// tenantExpoFields is the per-tenant counter exposition: names and order
// are pinned by a golden test, because the live /metrics endpoint is a
// public contract — append, never rename or reorder.
var tenantExpoFields = []struct {
	name string
	help string
	get  func(*TenantStats) int64
}{
	{"distws_tenant_jobs_submitted_total", "Job submissions per tenant.", func(t *TenantStats) int64 { return t.Submitted.Load() }},
	{"distws_tenant_jobs_admitted_total", "Jobs past admission control per tenant.", func(t *TenantStats) int64 { return t.Admitted.Load() }},
	{"distws_tenant_jobs_rejected_total", "Jobs nacked by admission control per tenant.", func(t *TenantStats) int64 { return t.Rejected.Load() }},
	{"distws_tenant_jobs_completed_total", "Jobs completed and acked per tenant.", func(t *TenantStats) int64 { return t.Completed.Load() }},
	{"distws_tenant_jobs_expired_total", "Jobs dropped at their deadline per tenant.", func(t *TenantStats) int64 { return t.Expired.Load() }},
}

// tenantQuantiles are the exported latency quantiles (Prometheus summary
// convention: a quantile label per line).
var tenantQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// WritePrometheus writes the per-tenant counters and latency quantiles in
// the Prometheus text exposition format, tenants in ascending id order.
func (s *Stats) WritePrometheus(w io.Writer) error {
	ids := s.ids()
	if len(ids) == 0 {
		return nil
	}
	for _, f := range tenantExpoFields {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.name, f.help, f.name); err != nil {
			return err
		}
		for _, id := range ids {
			if _, err := fmt.Fprintf(w, "%s{tenant=\"%d\"} %d\n", f.name, id, f.get(s.Tenant(id))); err != nil {
				return err
			}
		}
	}
	for _, h := range []struct {
		name string
		help string
		get  func(*TenantStats) *metrics.Histogram
	}{
		{"distws_tenant_queue_wait_ns", "Admission-to-dispatch wait per tenant (log2-bucket quantile upper bounds).", func(t *TenantStats) *metrics.Histogram { return &t.QueueWait }},
		{"distws_tenant_latency_ns", "Submission-to-completion latency per tenant (log2-bucket quantile upper bounds).", func(t *TenantStats) *metrics.Histogram { return &t.Latency }},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", h.name, h.help, h.name); err != nil {
			return err
		}
		for _, id := range ids {
			hist := h.get(s.Tenant(id))
			for _, tq := range tenantQuantiles {
				if _, err := fmt.Fprintf(w, "%s{tenant=\"%d\",quantile=\"%s\"} %d\n",
					h.name, id, tq.label, hist.Quantile(tq.q)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// JainIndex computes Jain's fairness index of the shares xs:
// (Σx)² / (n·Σx²), which is 1 for perfect fairness and 1/n when one
// tenant hoards everything. Weighted fairness is measured by passing
// throughput-per-weight shares. Empty or all-zero input yields 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
