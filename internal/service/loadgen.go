package service

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/metrics"
)

// TenantLoad describes one tenant's traffic in a load run.
type TenantLoad struct {
	// Tenant is the tenant id jobs bill to.
	Tenant uint32
	// Weight is the tenant's fair-share weight, echoed into the report so
	// fairness is judged per weight unit.
	Weight int
	// Clients is the closed-loop concurrency: that many workers each keep
	// one call in flight (default 1). Ignored in open loop.
	Clients int
	// RateHz, when > 0, switches the tenant to open loop: submissions
	// arrive in a Poisson stream at this rate regardless of completions.
	RateHz float64
	// Jobs caps the tenant's total submission attempts (0 = until ctx).
	Jobs int
	// Task names the registered task each job runs.
	Task string
	// Arg is the opaque argument sent with every job.
	Arg []byte
	// Priority tags every job (intra-tenant ordering).
	Priority uint8
}

// LoadConfig is one load-generator run.
type LoadConfig struct {
	// Seed drives the open-loop arrival processes.
	Seed int64
	// Tenants is the traffic mix.
	Tenants []TenantLoad
	// CallTimeout bounds one submission's wait for a reply (default 30s).
	CallTimeout time.Duration
}

// TenantResult is one tenant's client-observed outcome.
type TenantResult struct {
	Tenant    uint32
	Weight    int
	Attempted int64
	Completed int64
	Rejected  int64
	// Nacks counts rejections by reason, indexed by NackCode.
	Nacks [numNackCodes]int64
	// Latency observes client-side submit→reply time for completions.
	Latency metrics.Histogram
}

// LoadReport aggregates a load run.
type LoadReport struct {
	ElapsedNS int64
	Tenants   []TenantResult // ascending tenant id
	// Jain is Jain's fairness index over completed-per-weight shares: 1.0
	// means the cluster split exactly along the configured weights.
	Jain float64
	// Errors counts calls that got no reply (not nacks): a failed
	// submission, a reply past CallTimeout, or a client closed first.
	Errors int64
}

// Throughput returns completed jobs per second across tenants.
func (r *LoadReport) Throughput() float64 {
	if r.ElapsedNS <= 0 {
		return 0
	}
	var done int64
	for i := range r.Tenants {
		done += r.Tenants[i].Completed
	}
	return float64(done) / (float64(r.ElapsedNS) / 1e9)
}

// Format renders the report as an aligned human-readable table.
func (r *LoadReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load: %.2fs elapsed, %.1f jobs/s, Jain fairness %.4f, %d transport error(s)\n",
		float64(r.ElapsedNS)/1e9, r.Throughput(), r.Jain, r.Errors)
	fmt.Fprintf(&b, "%8s %6s %9s %9s %9s %12s %12s %12s  nacks\n",
		"tenant", "weight", "attempt", "complete", "reject", "p50", "p99", "p999")
	for i := range r.Tenants {
		t := &r.Tenants[i]
		var nacks []string
		for c := NackCode(1); c < numNackCodes; c++ {
			if n := t.Nacks[c]; n > 0 {
				nacks = append(nacks, fmt.Sprintf("%s=%d", c, n))
			}
		}
		fmt.Fprintf(&b, "%8d %6d %9d %9d %9d %12s %12s %12s  %s\n",
			t.Tenant, t.Weight, t.Attempted, t.Completed, t.Rejected,
			time.Duration(t.Latency.Quantile(0.5)), time.Duration(t.Latency.Quantile(0.99)),
			time.Duration(t.Latency.Quantile(0.999)), strings.Join(nacks, " "))
	}
	return b.String()
}

// jain computes the report's fairness index from completed-per-weight.
func (r *LoadReport) jain() float64 {
	shares := make([]float64, 0, len(r.Tenants))
	for i := range r.Tenants {
		t := &r.Tenants[i]
		w := t.Weight
		if w < 1 {
			w = 1
		}
		shares = append(shares, float64(t.Completed)/float64(w))
	}
	return JainIndex(shares)
}

// RunLoad drives the configured traffic mix through one client session
// until every tenant's job budget is spent or ctx expires, then reports
// per-tenant outcomes and overall fairness. Closed-loop tenants keep
// Clients calls in flight; open-loop tenants submit on a seeded Poisson
// clock independent of completions (the tail-latency-honest mode).
func RunLoad(ctx context.Context, c *Client, cfg LoadConfig) (*LoadReport, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("service: load run with no tenants")
	}
	timeout := cfg.CallTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	results := make([]TenantResult, len(cfg.Tenants))
	var errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := range cfg.Tenants {
		tl := cfg.Tenants[i]
		res := &results[i]
		res.Tenant, res.Weight = tl.Tenant, tl.Weight
		if tl.RateHz > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				openLoop(ctx, c, tl, res, &errs, timeout, cfg.Seed)
			}()
			continue
		}
		workers := tl.Clients
		if workers < 1 {
			workers = 1
		}
		var budget *atomic.Int64 // submissions still allowed; nil = unlimited
		if tl.Jobs > 0 {
			budget = new(atomic.Int64)
			budget.Store(int64(tl.Jobs))
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				closedLoop(ctx, c, tl, res, &errs, timeout, budget)
			}()
		}
	}
	wg.Wait()
	report := &LoadReport{ElapsedNS: time.Since(start).Nanoseconds(), Errors: errs.Load()}
	sort.Slice(results, func(i, j int) bool { return results[i].Tenant < results[j].Tenant })
	report.Tenants = results
	report.Jain = report.jain()
	return report, nil
}

// account records one call outcome into the tenant's result. Counter
// fields are updated atomically: several workers share one TenantResult.
func account(res *TenantResult, r Reply, elapsedNS int64) {
	if r.Code == OK {
		atomic.AddInt64(&res.Completed, 1)
		res.Latency.Record(elapsedNS)
		return
	}
	atomic.AddInt64(&res.Rejected, 1)
	atomic.AddInt64(&res.Nacks[r.Code], 1)
}

// closedLoop is one worker holding a single call in flight. Rate nacks
// back off by the server's hint so the worker probes, not hammers.
func closedLoop(ctx context.Context, c *Client, tl TenantLoad, res *TenantResult,
	errs *atomic.Int64, timeout time.Duration, budget *atomic.Int64) {
	for ctx.Err() == nil {
		if budget != nil && budget.Add(-1) < 0 {
			return
		}
		atomic.AddInt64(&res.Attempted, 1)
		cctx, cancel := context.WithTimeout(ctx, timeout)
		t0 := time.Now()
		r, err := c.Call(cctx, Job{Tenant: tl.Tenant, Priority: tl.Priority, Name: tl.Task, Arg: tl.Arg})
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			errs.Add(1)
			continue
		}
		account(res, r, time.Since(t0).Nanoseconds())
		if r.Code == NackRate && r.RetryAfterNS > 0 {
			select {
			case <-time.After(time.Duration(r.RetryAfterNS)):
			case <-ctx.Done():
				return
			}
		}
	}
}

// openLoop submits on a seeded Poisson arrival clock, decoupling the
// arrival process from completions; replies are collected concurrently.
func openLoop(ctx context.Context, c *Client, tl TenantLoad, res *TenantResult,
	errs *atomic.Int64, timeout time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed + int64(tl.Tenant)))
	var collectors sync.WaitGroup
	defer collectors.Wait()
	for n := 0; ctx.Err() == nil && (tl.Jobs == 0 || n < tl.Jobs); n++ {
		// Exponential inter-arrival at RateHz.
		wait := time.Duration(rng.ExpFloat64() / tl.RateHz * float64(time.Second))
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return
		}
		atomic.AddInt64(&res.Attempted, 1)
		t0 := time.Now()
		id, ch, err := c.submit(Job{Tenant: tl.Tenant, Priority: tl.Priority, Name: tl.Task, Arg: tl.Arg})
		if err != nil {
			errs.Add(1)
			continue
		}
		collectors.Add(1)
		go func() {
			defer collectors.Done()
			select {
			case r := <-ch:
				account(res, r, time.Since(t0).Nanoseconds())
			case <-time.After(timeout):
				c.forget(id)
				errs.Add(1)
			case <-c.Done():
				c.forget(id)
				errs.Add(1)
			}
		}()
	}
}

// ParseClauses parses a per-tenant spec of the form
//
//	"1:k=v,k=v;2:k=v"
//
// one clause per tenant, `id:` followed by comma-separated key=value
// pairs. For each clause, in order, it calls clause with the tenant id
// and hands each of the clause's pairs to the setter clause returns. A
// malformed clause, a tenant named twice, an error from a setter or a
// spec with no clause fails the parse.
func ParseClauses(spec string, clause func(tenant uint32) func(key, value string) error) error {
	seen := make(map[uint32]bool)
	for _, c := range strings.Split(spec, ";") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		id, rest, ok := strings.Cut(c, ":")
		if !ok {
			return fmt.Errorf("service: tenant clause %q, want id:k=v,...", c)
		}
		var tenant uint32
		if _, err := fmt.Sscanf(strings.TrimSpace(id), "%d", &tenant); err != nil {
			return fmt.Errorf("service: tenant id %q: %w", id, err)
		}
		if seen[tenant] {
			return fmt.Errorf("service: tenant %d appears twice", tenant)
		}
		seen[tenant] = true
		set := clause(tenant)
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("service: tenant %d option %q, want k=v", tenant, kv)
			}
			if err := set(k, v); err != nil {
				return fmt.Errorf("service: tenant %d option %q: %w", tenant, kv, err)
			}
		}
	}
	if len(seen) == 0 {
		return fmt.Errorf("service: tenant spec %q has no tenants", spec)
	}
	return nil
}

// ParseTenantSpec parses a tenant-mix flag of the form
//
//	"1:w=1,rate=100,burst=10,inflight=8;2:w=3,inflight=16"
//
// into service tenant configs, with ParseClauses's grammar and the keys
// w, rate, burst and inflight.
func ParseTenantSpec(spec string) (map[uint32]TenantConfig, error) {
	cfgs := make(map[uint32]*TenantConfig)
	err := ParseClauses(spec, func(tenant uint32) func(key, value string) error {
		cfg := new(TenantConfig)
		cfgs[tenant] = cfg
		return func(k, v string) (err error) {
			switch k {
			case "w":
				_, err = fmt.Sscanf(v, "%d", &cfg.Weight)
			case "rate":
				_, err = fmt.Sscanf(v, "%g", &cfg.Rate)
			case "burst":
				_, err = fmt.Sscanf(v, "%d", &cfg.Burst)
			case "inflight":
				_, err = fmt.Sscanf(v, "%d", &cfg.MaxInFlight)
			default:
				err = fmt.Errorf("unknown key %q (keys: w, rate, burst, inflight)", k)
			}
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	out := make(map[uint32]TenantConfig, len(cfgs))
	for tenant, cfg := range cfgs {
		out[tenant] = *cfg
	}
	return out, nil
}
