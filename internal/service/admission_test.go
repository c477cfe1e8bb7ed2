package service

import (
	"errors"
	"testing"

	"distws/internal/comm"
)

// TestAdmissionUnknownTenant pins the typed rejection for unconfigured
// tenants, and that every admission error joins the backpressure surface.
func TestAdmissionUnknownTenant(t *testing.T) {
	a := NewAdmission(map[uint32]TenantConfig{1: {}})
	err := a.Admit(99, 0)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Code != NackUnknownTenant {
		t.Fatalf("admit unknown tenant: %v, want NackUnknownTenant", err)
	}
	if !errors.Is(err, comm.ErrBackpressure) {
		t.Fatalf("admission error does not match comm.ErrBackpressure")
	}
}

// TestAdmissionQuota pins the in-flight cap: admissions beyond
// MaxInFlight are nacked until completions free slots.
func TestAdmissionQuota(t *testing.T) {
	a := NewAdmission(map[uint32]TenantConfig{1: {MaxInFlight: 2}})
	for i := 0; i < 2; i++ {
		if err := a.Admit(1, 0); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	var ae *AdmissionError
	if err := a.Admit(1, 0); !errors.As(err, &ae) || ae.Code != NackQuota {
		t.Fatalf("admit over quota: %v, want NackQuota", err)
	}
	if got := a.tenants[1].inflight; got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	a.Complete(1)
	if err := a.Admit(1, 0); err != nil {
		t.Fatalf("admit after completion: %v", err)
	}
}

// TestAdmissionRate pins the token bucket on an explicit clock: Burst
// admissions pass back to back, the next is nacked with a positive
// retry-after hint, and the hinted wait indeed frees a token.
func TestAdmissionRate(t *testing.T) {
	a := NewAdmission(map[uint32]TenantConfig{1: {Rate: 1000, Burst: 2}})
	for i := 0; i < 2; i++ {
		if err := a.Admit(1, 0); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	err := a.Admit(1, 0)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Code != NackRate {
		t.Fatalf("admit over rate: %v, want NackRate", err)
	}
	if ae.RetryAfterNS <= 0 {
		t.Fatalf("RetryAfterNS = %d, want > 0", ae.RetryAfterNS)
	}
	// At 1000 jobs/s one token accrues per ms; the hint says so.
	if ae.RetryAfterNS > 1_000_000 {
		t.Fatalf("RetryAfterNS = %d, want <= 1ms at 1000/s", ae.RetryAfterNS)
	}
	if err := a.Admit(1, ae.RetryAfterNS); err != nil {
		t.Fatalf("admit after hinted wait: %v", err)
	}
}

// TestAdmissionDefaults pins the effective weight and burst defaults.
func TestAdmissionDefaults(t *testing.T) {
	a := NewAdmission(map[uint32]TenantConfig{
		1: {},                     // weight 1, no rate
		2: {Weight: 3, Rate: 2.5}, // burst defaults to ceil(2.5) = 3
	})
	w := a.Weights()
	if w[1] != 1 || w[2] != 3 {
		t.Fatalf("Weights = %v, want {1:1, 2:3}", w)
	}
	for i := 0; i < 3; i++ {
		if err := a.Admit(2, 0); err != nil {
			t.Fatalf("default-burst admit %d: %v", i, err)
		}
	}
	if err := a.Admit(2, 0); err == nil {
		t.Fatalf("admit past default burst succeeded, want rate nack")
	}
	// Unlimited tenants never rate-nack.
	for i := 0; i < 100; i++ {
		if err := a.Admit(1, 0); err != nil {
			t.Fatalf("unlimited admit %d: %v", i, err)
		}
	}
}
