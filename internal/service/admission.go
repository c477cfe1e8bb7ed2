package service

import (
	"fmt"
	"math"

	"distws/internal/comm"
)

// TenantConfig describes one tenant's contract with the service: its
// fair-share weight and its admission limits.
type TenantConfig struct {
	// Weight is the tenant's fair-share weight (>= 1; 0 means 1). At
	// saturation a tenant receives Weight/ΣWeights of the dispatch slots.
	Weight int
	// Rate is the sustained admission rate in jobs per second refilling
	// the tenant's token bucket. 0 means unlimited.
	Rate float64
	// Burst is the token-bucket capacity — how many jobs may be admitted
	// back to back after an idle period. 0 defaults to max(1, ⌈Rate⌉).
	Burst int
	// MaxInFlight caps the tenant's admitted-but-uncompleted jobs
	// (queued + dispatched). 0 means unlimited. This is also the bound
	// on the tenant's queue: admission is the only door into it.
	MaxInFlight int
}

// weight returns the effective fair-share weight.
func (c TenantConfig) weight() int {
	if c.Weight < 1 {
		return 1
	}
	return c.Weight
}

// burst returns the effective token-bucket capacity.
func (c TenantConfig) burst() int {
	if c.Burst > 0 {
		return c.Burst
	}
	if c.Rate <= 0 {
		return 1
	}
	return int(math.Max(1, math.Ceil(c.Rate)))
}

// AdmissionError is the typed rejection of a job submission. It joins the
// existing backpressure surface: errors.Is(err, comm.ErrBackpressure)
// matches, because an admission rejection is the service-level form of
// "the destination cannot take this right now".
type AdmissionError struct {
	// Tenant is the rejected tenant.
	Tenant uint32
	// Code names the reason (NackRate, NackQuota, NackUnknownTenant).
	Code NackCode
	// RetryAfterNS hints how long to back off: for a rate rejection, the
	// time until the next token lands; 0 when only external progress (a
	// completion) can help.
	RetryAfterNS int64
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("service: tenant %d rejected (%s)", e.Tenant, e.Code)
}

// Is makes errors.Is(err, comm.ErrBackpressure) match.
func (e *AdmissionError) Is(target error) bool { return target == comm.ErrBackpressure }

// tenantState is one tenant's live admission state.
type tenantState struct {
	cfg      TenantConfig
	tokens   float64 // current token-bucket level
	lastNS   int64   // clock of the last refill
	inflight int     // admitted jobs not yet completed
}

// Admission is the per-tenant admission controller: a deterministic
// token bucket (rate + burst) and an in-flight quota per tenant. It is
// clock-explicit — callers pass nowNS — so the simulator drives it on
// virtual time and fixed-seed runs replay bit-identically. Not safe for
// concurrent use; the owning event loop serializes access.
type Admission struct {
	tenants map[uint32]*tenantState
}

// NewAdmission builds a controller for the configured tenants. Tenants
// absent from cfg are rejected with NackUnknownTenant.
func NewAdmission(cfg map[uint32]TenantConfig) *Admission {
	a := &Admission{tenants: make(map[uint32]*tenantState, len(cfg))}
	for id, c := range cfg {
		a.tenants[id] = &tenantState{cfg: c, tokens: float64(c.burst())}
	}
	return a
}

// Weights returns the fair-share weight of every configured tenant.
func (a *Admission) Weights() map[uint32]int {
	w := make(map[uint32]int, len(a.tenants))
	for id, st := range a.tenants {
		w[id] = st.cfg.weight()
	}
	return w
}

// refill tops the bucket up for the time elapsed since the last refill.
func (st *tenantState) refill(nowNS int64) {
	if st.cfg.Rate <= 0 {
		return
	}
	if dt := nowNS - st.lastNS; dt > 0 {
		st.tokens = math.Min(float64(st.cfg.burst()),
			st.tokens+st.cfg.Rate*float64(dt)/1e9)
	}
	st.lastNS = nowNS
}

// Admit charges one job to the tenant at nowNS. On success it returns nil
// and the job counts against the in-flight quota until Complete. On
// rejection it returns a typed *AdmissionError (which also matches
// comm.ErrBackpressure) carrying the reason and a backoff hint.
func (a *Admission) Admit(tenant uint32, nowNS int64) error {
	st, ok := a.tenants[tenant]
	if !ok {
		return &AdmissionError{Tenant: tenant, Code: NackUnknownTenant}
	}
	if st.cfg.MaxInFlight > 0 && st.inflight >= st.cfg.MaxInFlight {
		return &AdmissionError{Tenant: tenant, Code: NackQuota}
	}
	if st.cfg.Rate > 0 {
		st.refill(nowNS)
		if st.tokens < 1 {
			// Hint the time until the next whole token accrues.
			wait := int64((1 - st.tokens) / st.cfg.Rate * 1e9)
			return &AdmissionError{Tenant: tenant, Code: NackRate, RetryAfterNS: wait}
		}
		st.tokens--
	}
	st.inflight++
	return nil
}

// Complete releases one in-flight slot for the tenant (job completed,
// expired, or failed after admission). Unknown tenants are ignored.
func (a *Admission) Complete(tenant uint32) {
	if st, ok := a.tenants[tenant]; ok && st.inflight > 0 {
		st.inflight--
	}
}
