package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"distws/internal/service"
)

// TestParseSpecReadsEachModesKeys pins every key each mode reads and
// that a key only the other mode reads is refused, not ignored.
func TestParseSpecReadsEachModesKeys(t *testing.T) {
	loads, err := parseLoadSpec("1:w=2,clients=3,jobs=4,open=5,task=svc.echo,prio=6; 2:")
	if err != nil {
		t.Fatal(err)
	}
	wantLoads := []service.TenantLoad{
		{Tenant: 1, Weight: 2, Clients: 3, Jobs: 4, RateHz: 5, Task: "svc.echo", Priority: 6},
		{Tenant: 2, Weight: 1},
	}
	if !reflect.DeepEqual(loads, wantLoads) {
		t.Errorf("live spec = %+v, want %+v", loads, wantLoads)
	}

	tenants, err := parseSimSpec("1:w=2,rate=3,burst=4,inflight=5,arrival=6,svc=7ms,prio=8; 2:")
	if err != nil {
		t.Fatal(err)
	}
	wantTenants := []service.SimTenant{
		{Tenant: 1, Config: service.TenantConfig{Weight: 2, Rate: 3, Burst: 4, MaxInFlight: 5},
			ArrivalHz: 6, MeanServiceNS: (7 * time.Millisecond).Nanoseconds(), Priority: 8},
		{Tenant: 2, Config: service.TenantConfig{Weight: 1}},
	}
	if !reflect.DeepEqual(tenants, wantTenants) {
		t.Errorf("sim spec = %+v, want %+v", tenants, wantTenants)
	}

	for _, key := range []string{"rate=1", "burst=1", "inflight=1", "arrival=1", "svc=1ms"} {
		if _, err := parseLoadSpec("1:" + key); err == nil || !strings.Contains(err.Error(), "live cluster") {
			t.Errorf("live spec took the -sim key %s (err %v)", key, err)
		}
	}
	for _, key := range []string{"clients=1", "jobs=1", "open=1", "task=svc.echo"} {
		if _, err := parseSimSpec("1:" + key); err == nil || !strings.Contains(err.Error(), "-sim") {
			t.Errorf("-sim spec took the live key %s (err %v)", key, err)
		}
	}
}
