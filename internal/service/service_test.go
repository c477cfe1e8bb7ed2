package service

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/task"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// startExecutor runs a node.Executor on seat p and returns its exit channel.
func startExecutor(m *comm.Mesh, p int, reg *task.Registry, conc int, announce bool) (*node.Executor, chan error) {
	ex := &node.Executor{
		Node:        m.Endpoint(p),
		Place:       p,
		Registry:    reg,
		Concurrency: conc,
		Announce:    announce,
		Run: func(name string, arg []byte) ([]byte, error) {
			if name == "svc.slow" {
				time.Sleep(20 * time.Millisecond)
			}
			return u64(binary.BigEndian.Uint64(arg) * 2), nil
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := ex.Serve()
		done <- err
	}()
	return ex, done
}

// TestServiceEndToEnd streams jobs from three concurrent tenants through
// the front door over an in-process mesh: results come back correct,
// admission rejects over-quota and unknown traffic with typed nacks, and
// a graceful drain completes every admitted job.
func TestServiceEndToEnd(t *testing.T) {
	const places = 3 // server + 2 executors; seats 3,4 are clients
	m := comm.NewMesh(places+2, 256, nil)
	reg := task.NewRegistry()
	reg.Register("svc.double", func([]byte) error { return nil })
	reg.Register("svc.slow", func([]byte) error { return nil })
	_, ex1 := startExecutor(m, 1, reg, 2, false)
	_, ex2 := startExecutor(m, 2, reg, 2, false)

	var ctrs metrics.Counters
	stats := NewStats()
	srv := &Server{
		Node:   m.Endpoint(0),
		Places: places,
		Tenants: map[uint32]TenantConfig{
			1: {MaxInFlight: 8},
			2: {Weight: 2, MaxInFlight: 8},
			3: {MaxInFlight: 1},
		},
		Registry:   reg,
		Counters:   &ctrs,
		Stats:      stats,
		RetryAfter: 2 * time.Second,
	}
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	ca := NewClient(m.Endpoint(places), 0)
	cb := NewClient(m.Endpoint(places+1), 0)

	var wg sync.WaitGroup
	var bad atomic.Int64
	for _, tenant := range []uint32{1, 2} {
		wg.Add(1)
		go func(tenant uint32) {
			defer wg.Done()
			for i := uint64(0); i < 20; i++ {
				r, err := ca.Call(ctx, Job{Tenant: tenant, Name: "svc.double", Arg: u64(i)})
				if err != nil || r.Code != OK || binary.BigEndian.Uint64(r.Result) != i*2 {
					t.Errorf("tenant %d job %d: reply %+v err %v", tenant, i, r, err)
					bad.Add(1)
					return
				}
			}
		}(tenant)
	}
	// Tenant 3 bursts 10 concurrent calls against an in-flight quota of 1:
	// some must be nacked with NackQuota, none may vanish.
	var quotaNacks, okReplies atomic.Int64
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			r, err := cb.Call(ctx, Job{Tenant: 3, Name: "svc.slow", Arg: u64(i)})
			if err != nil {
				t.Errorf("tenant 3 job %d: %v", i, err)
				return
			}
			switch r.Code {
			case OK:
				okReplies.Add(1)
			case NackQuota:
				quotaNacks.Add(1)
			default:
				t.Errorf("tenant 3 job %d: unexpected code %v", i, r.Code)
			}
		}(uint64(i))
	}
	wg.Wait()
	if bad.Load() > 0 {
		t.Fatalf("%d failed calls", bad.Load())
	}
	if got := okReplies.Load() + quotaNacks.Load(); got != 10 {
		t.Fatalf("tenant 3 accounted %d of 10 calls", got)
	}
	if quotaNacks.Load() == 0 {
		t.Fatalf("no quota nacks for a 10-deep burst against MaxInFlight=1")
	}

	// Unknown tenant and unknown task are typed rejections, not drops.
	if r, err := ca.Call(ctx, Job{Tenant: 99, Name: "svc.double", Arg: u64(1)}); err != nil || r.Code != NackUnknownTenant {
		t.Fatalf("unknown tenant: reply %+v err %v", r, err)
	}
	if r, err := ca.Call(ctx, Job{Tenant: 1, Name: "no.such.task", Arg: u64(1)}); err != nil || r.Code != NackUnknownTask {
		t.Fatalf("unknown task: reply %+v err %v", r, err)
	}

	// Per-tenant accounting: everything admitted completed, exactly once.
	for _, tenant := range []uint32{1, 2, 3} {
		st := stats.Tenant(tenant)
		if st.Admitted.Load() != st.Completed.Load() {
			t.Errorf("tenant %d: admitted %d != completed %d",
				tenant, st.Admitted.Load(), st.Completed.Load())
		}
	}
	if got := ctrs.JobsCompleted.Load(); got != 40+okReplies.Load() {
		t.Errorf("JobsCompleted = %d, want %d", got, 40+okReplies.Load())
	}
	if ctrs.JobsRejected.Load() == 0 {
		t.Errorf("JobsRejected = 0, want > 0")
	}

	srv.Drain()
	if err := <-srvDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	for i, ch := range []chan error{ex1, ex2} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("executor %d: %v", i+1, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("executor %d never released", i+1)
		}
	}
}

// TestServiceFairShareSaturation pins the end-to-end fairness contract:
// with two tenants fully backlogged behind one serial executor, the
// dispatch share of each tenant deviates from its weight proportion by
// no more than 10%.
func TestServiceFairShareSaturation(t *testing.T) {
	const places = 2
	m := comm.NewMesh(places+1, 1024, nil)
	reg := task.NewRegistry()
	reg.Register("svc.gate", func([]byte) error { return nil })

	gate := make(chan struct{})
	var mu sync.Mutex
	var order []uint32 // tenant of each job, in execution order
	ex := &node.Executor{
		Node:     m.Endpoint(1),
		Place:    1,
		Registry: reg,
		Run: func(name string, arg []byte) ([]byte, error) {
			<-gate
			mu.Lock()
			order = append(order, binary.BigEndian.Uint32(arg))
			mu.Unlock()
			return nil, nil
		},
	}
	exDone := make(chan error, 1)
	go func() { _, err := ex.Serve(); exDone <- err }()

	stats := NewStats()
	srv := &Server{
		Node:   m.Endpoint(0),
		Places: places,
		Tenants: map[uint32]TenantConfig{
			1: {Weight: 1},
			2: {Weight: 3},
		},
		Registry:   reg,
		Stats:      stats,
		RetryAfter: time.Minute, // no spurious re-dispatch while gated
	}
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(context.Background()) }()

	c := NewClient(m.Endpoint(places), 0)
	const per = 300
	arg := func(tenant uint32) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint32(b, tenant)
		return b
	}
	for i := 0; i < per; i++ {
		for _, tenant := range []uint32{1, 2} {
			if _, err := c.Submit(Job{Tenant: tenant, Name: "svc.gate", Arg: arg(tenant)}); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}
	// Wait until both backlogs sit in the fair-share queues, then open the
	// gate: from here each completion pops exactly one job in DRR order.
	deadline := time.Now().Add(10 * time.Second)
	for stats.Tenant(1).Admitted.Load()+stats.Tenant(2).Admitted.Load() < 2*per {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs admitted",
				stats.Tenant(1).Admitted.Load()+stats.Tenant(2).Admitted.Load(), 2*per)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for stats.Tenant(1).Completed.Load()+stats.Tenant(2).Completed.Load() < 2*per {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs completed",
				stats.Tenant(1).Completed.Load()+stats.Tenant(2).Completed.Load(), 2*per)
		}
		time.Sleep(time.Millisecond)
	}

	// Skip the pre-saturation head (dispatched on arrival, before both
	// tenants were backlogged), and stop before tenant 2's queue dries.
	mu.Lock()
	window := order[16:316]
	mu.Unlock()
	counts := map[uint32]int{}
	for _, tenant := range window {
		counts[tenant]++
	}
	for tenant, weight := range map[uint32]float64{1: 1, 2: 3} {
		want := weight / 4
		got := float64(counts[tenant]) / float64(len(window))
		if dev := (got - want) / want; dev > 0.10 || dev < -0.10 {
			t.Errorf("tenant %d dispatch share %.3f, want %.3f ±10%% (counts %v)",
				tenant, got, want, counts)
		}
	}

	srv.Drain()
	if err := <-srvDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	<-exDone
}

// TestServiceChurnExactlyOnce streams one tenant's jobs through a mid-run
// executor join and a graceful drain: every admitted job completes
// exactly once, and nothing is re-executed by the churn.
func TestServiceChurnExactlyOnce(t *testing.T) {
	const places = 4 // server + 3 executor seats (seat 3 joins late)
	m := comm.NewMesh(places+1, 512, nil)
	reg := task.NewRegistry()
	reg.Register("svc.double", func([]byte) error { return nil })
	exA, exADone := startExecutor(m, 1, reg, 2, false)
	_, exBDone := startExecutor(m, 2, reg, 2, false)

	var ctrs metrics.Counters
	stats := NewStats()
	srv := &Server{
		Node:       m.Endpoint(0),
		Places:     places,
		Tenants:    map[uint32]TenantConfig{1: {MaxInFlight: 16}},
		Registry:   reg,
		Counters:   &ctrs,
		Stats:      stats,
		Absent:     []int{3},
		RetryAfter: 2 * time.Second,
	}
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := NewClient(m.Endpoint(places), 0)

	const total = 200
	var replies atomic.Int64
	var churn sync.Once
	var wg sync.WaitGroup
	var exCDone chan error
	churnDone := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < total/8; i++ {
				id := uint64(w*total/8 + i)
				r, err := c.Call(ctx, Job{Tenant: 1, Name: "svc.double", Arg: u64(id)})
				if err != nil || r.Code != OK || binary.BigEndian.Uint64(r.Result) != id*2 {
					t.Errorf("job %d: reply %+v err %v", id, r, err)
					return
				}
				if replies.Add(1) == total/4 {
					// A quarter in: seat 3 joins, then executor 1 drains.
					churn.Do(func() {
						_, exCDone = startExecutor(m, 3, reg, 2, true)
						// The announcement is sent from the executor's own
						// goroutine; hold the drain until the server has
						// admitted the joiner so both transitions happen
						// mid-stream.
						for ctrs.MembershipJoins.Load() == 0 {
							time.Sleep(time.Millisecond)
						}
						exA.Drain()
						close(churnDone)
					})
				}
			}
		}(w)
	}
	wg.Wait()
	<-churnDone
	// The drain announcement races the tail of the stream: Drain() returns
	// once the message is enqueued, not once the server has processed it,
	// so wait for the counter before asserting on it.
	for deadline := time.Now().Add(5 * time.Second); ctrs.MembershipDrains.Load() == 0 &&
		time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	st := stats.Tenant(1)
	if st.Admitted.Load() != total || st.Completed.Load() != total {
		t.Fatalf("admitted %d completed %d, want %d of each",
			st.Admitted.Load(), st.Completed.Load(), total)
	}
	if st.Rejected.Load() != 0 {
		t.Fatalf("rejected %d jobs, want 0", st.Rejected.Load())
	}
	if got := ctrs.TasksReExecuted.Load(); got != 0 {
		t.Fatalf("TasksReExecuted = %d: churn re-ran completed work", got)
	}
	if ctrs.MembershipJoins.Load() == 0 || ctrs.MembershipDrains.Load() == 0 {
		t.Fatalf("churn not observed: joins=%d drains=%d",
			ctrs.MembershipJoins.Load(), ctrs.MembershipDrains.Load())
	}

	srv.Drain()
	if err := <-srvDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	for name, ch := range map[string]chan error{"A": exADone, "B": exBDone, "C": exCDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("executor %s: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("executor %s never released", name)
		}
	}
}

// TestServiceHardStopBouncesQueuedJobs cancels Serve's context with one job
// running at the only executor slot and four admitted behind it: Serve
// returns the context's error, every queued job is nacked NackDraining and
// gives its admission slot back, and the running one is neither answered
// nor released.
func TestServiceHardStopBouncesQueuedJobs(t *testing.T) {
	const places, queued = 2, 4
	m := comm.NewMesh(places+1, 64, nil)
	reg := task.NewRegistry()
	reg.Register("svc.gate", func([]byte) error { return nil })
	gate := make(chan struct{})
	ex := &node.Executor{
		Node:     m.Endpoint(1),
		Place:    1,
		Registry: reg,
		Run:      func(string, []byte) ([]byte, error) { <-gate; return nil, nil },
	}
	exDone := make(chan error, 1)
	go func() { _, err := ex.Serve(); exDone <- err }()

	stats := NewStats()
	srv := &Server{
		Node:       m.Endpoint(0),
		Places:     places,
		Tenants:    map[uint32]TenantConfig{1: {}},
		Registry:   reg,
		Stats:      stats,
		Window:     1,
		RetryAfter: time.Minute, // no re-dispatch while gated
	}
	ctx, cancel := context.WithCancel(context.Background())
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(ctx) }()

	c := NewClient(m.Endpoint(places), 0)
	var replies []<-chan Reply
	for i := 0; i < 1+queued; i++ {
		ch, err := c.Submit(Job{Tenant: 1, Name: "svc.gate"})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		replies = append(replies, ch)
	}
	for deadline := time.Now().Add(10 * time.Second); stats.Tenant(1).Admitted.Load() < 1+queued; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs admitted", stats.Tenant(1).Admitted.Load(), 1+queued)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-srvDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v, want context.Canceled", err)
	}
	for i, ch := range replies[1:] {
		select {
		case r := <-ch:
			if r.Code != NackDraining {
				t.Errorf("queued job %d: reply code %v, want NackDraining", i+2, r.Code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("queued job %d was never bounced", i+2)
		}
	}
	if got := stats.Tenant(1).Rejected.Load(); got != queued {
		t.Errorf("Rejected = %d, want the %d queued jobs", got, queued)
	}
	if got := srv.adm.InFlight(1); got != 1 {
		t.Errorf("%d admission slot(s) held after the hard stop, want the running job's 1", got)
	}
	select {
	case r := <-replies[0]:
		t.Errorf("the running job was answered with %+v", r)
	default:
	}
	close(gate)
	if err := <-exDone; err != nil {
		t.Fatalf("executor: %v", err)
	}
}

// TestRunLoadMesh drives the load generator against a live service and
// checks its accounting adds up.
func TestRunLoadMesh(t *testing.T) {
	const places = 3
	m := comm.NewMesh(places+1, 512, nil)
	reg := task.NewRegistry()
	reg.Register("svc.double", func([]byte) error { return nil })
	reg.Register("svc.slow", func([]byte) error { return nil })
	_, ex1 := startExecutor(m, 1, reg, 2, false)
	_, ex2 := startExecutor(m, 2, reg, 2, false)

	stats := NewStats()
	srv := &Server{
		Node:   m.Endpoint(0),
		Places: places,
		Tenants: map[uint32]TenantConfig{
			1: {Weight: 1, MaxInFlight: 8},
			2: {Weight: 2, MaxInFlight: 8},
			3: {Weight: 1, MaxInFlight: 1},
		},
		Registry:   reg,
		Stats:      stats,
		RetryAfter: 2 * time.Second,
	}
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := NewClient(m.Endpoint(places), 0)
	report, err := RunLoad(ctx, c, LoadConfig{
		Seed: 42,
		Tenants: []TenantLoad{
			{Tenant: 1, Weight: 1, Clients: 2, Jobs: 40, Task: "svc.double", Arg: u64(5)},
			{Tenant: 2, Weight: 2, Clients: 2, Jobs: 40, Task: "svc.double", Arg: u64(5)},
			{Tenant: 3, Weight: 1, Clients: 4, Jobs: 20, Task: "svc.slow", Arg: u64(5)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("report has %d transport errors", report.Errors)
	}
	if len(report.Tenants) != 3 {
		t.Fatalf("report covers %d tenants, want 3", len(report.Tenants))
	}
	for i := range report.Tenants {
		tr := &report.Tenants[i]
		if i > 0 && tr.Tenant <= report.Tenants[i-1].Tenant {
			t.Fatalf("tenants not sorted: %v", report.Tenants)
		}
		if tr.Completed+tr.Rejected != tr.Attempted {
			t.Errorf("tenant %d: completed %d + rejected %d != attempted %d",
				tr.Tenant, tr.Completed, tr.Rejected, tr.Attempted)
		}
		if tr.Completed == 0 {
			t.Errorf("tenant %d completed nothing", tr.Tenant)
		}
	}
	// Tenant 3's 4 clients against MaxInFlight=1 must see quota nacks.
	if report.Tenants[2].Nacks[NackQuota] == 0 {
		t.Errorf("tenant 3 saw no quota nacks (rejected %d of %d attempts)",
			report.Tenants[2].Rejected, report.Tenants[2].Attempted)
	}
	if report.Jain <= 0 || report.Jain > 1 {
		t.Errorf("Jain index %v out of (0,1]", report.Jain)
	}
	if report.Format() == "" {
		t.Errorf("empty formatted report")
	}

	srv.Drain()
	if err := <-srvDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	<-ex1
	<-ex2
}

// TestParseTenantSpec pins the tenant-mix flag grammar.
func TestParseTenantSpec(t *testing.T) {
	cfg, err := ParseTenantSpec("1:w=1,rate=100,burst=10,inflight=8; 2:w=3")
	if err != nil {
		t.Fatal(err)
	}
	want1 := TenantConfig{Weight: 1, Rate: 100, Burst: 10, MaxInFlight: 8}
	if cfg[1] != want1 {
		t.Fatalf("tenant 1 = %+v, want %+v", cfg[1], want1)
	}
	if cfg[2].Weight != 3 {
		t.Fatalf("tenant 2 = %+v, want weight 3", cfg[2])
	}
	for _, bad := range []string{"", "x", "1:w", "1:z=3", "1:w=x"} {
		if _, err := ParseTenantSpec(bad); err == nil {
			t.Errorf("ParseTenantSpec(%q) accepted", bad)
		}
	}
}
