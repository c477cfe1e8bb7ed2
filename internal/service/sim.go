package service

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/task"
	"distws/internal/vtime"
)

// SimTenant is one tenant's traffic model in the service simulator.
type SimTenant struct {
	// Tenant is the tenant id.
	Tenant uint32
	// Config is the tenant's admission/fair-share contract.
	Config TenantConfig
	// ArrivalHz is the Poisson submission rate.
	ArrivalHz float64
	// MeanServiceNS is the mean of the exponential service-time draw.
	MeanServiceNS int64
	// Priority tags every simulated job.
	Priority uint8
}

// SimChurn changes the executor set mid-run: a positive DeltaSlots makes
// that many absent executors join, a negative one makes that many start a
// graceful drain (the job each is running finishes, the jobs queued behind
// it are returned to the front door). The cluster never drains its last
// executor.
type SimChurn struct {
	AtNS       int64
	DeltaSlots int
}

// SimConfig is one deterministic service simulation: virtual time only,
// all randomness from Seed, so equal configs produce bit-identical
// reports — the property the fixed-seed soak pins.
type SimConfig struct {
	Seed int64
	// Slots is the initial number of executors; each runs one job at a time.
	Slots int
	// Quantum scales the DRR credit per visit (0 = 1).
	Quantum int
	// DurationNS bounds the arrival processes; the run then drains.
	DurationNS int64
	Tenants    []SimTenant
	Churn      []SimChurn
}

// SimTenantResult is one tenant's simulated outcome.
type SimTenantResult struct {
	Tenant                                   uint32
	Weight                                   int
	Submitted, Admitted, Rejected, Completed int64
	// P50/P99/P999 are virtual-time latency quantile bounds (admission to
	// completion), straight from the log2 histogram.
	P50, P99, P999 int64
	// MeanWaitNS is the mean admission-to-dispatch wait.
	MeanWaitNS int64
}

// SimReport is a deterministic function of its SimConfig.
type SimReport struct {
	Config  SimConfig
	Tenants []SimTenantResult // ascending tenant id
	// EndNS is the virtual instant the last job completed.
	EndNS int64
	// Jain is the fairness index over completed-per-weight shares.
	Jain float64
}

// Format renders the report; equal reports render equal strings, which is
// how the soak compares two runs bit for bit.
func (r *SimReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: seed=%d slots=%d horizon=%s end=%s jain=%.6f\n",
		r.Config.Seed, r.Config.Slots,
		time.Duration(r.Config.DurationNS), time.Duration(r.EndNS), r.Jain)
	fmt.Fprintf(&b, "%8s %6s %9s %9s %9s %9s %12s %12s %12s %12s\n",
		"tenant", "weight", "submit", "admit", "reject", "complete", "p50", "p99", "p999", "wait")
	for i := range r.Tenants {
		t := &r.Tenants[i]
		fmt.Fprintf(&b, "%8d %6d %9d %9d %9d %9d %12s %12s %12s %12s\n",
			t.Tenant, t.Weight, t.Submitted, t.Admitted, t.Rejected, t.Completed,
			time.Duration(t.P50), time.Duration(t.P99), time.Duration(t.P999),
			time.Duration(t.MeanWaitNS))
	}
	return b.String()
}

// cluster drives a Server and its Executors on a vtime.Net: the second
// driver of the loops whose first is Server.Serve and Executor.Serve.
// Where those block in a select with a ticker and a timer, this one turns
// every arriving frame, detector period, heartbeat period and retry expiry
// into one call of the same step, Handle or Beat, from the one goroutine
// that steps the net.
type cluster struct {
	net   *vtime.Net
	srv   *Server
	execs map[int]*node.Executor // the executors still serving, by place
	// client receives the frames addressed to seats outside the cluster.
	client func(to int, m comm.Message)

	retryAt int64 // when the retry window runs out
	done    bool  // the dispatch loop finished and released its executors
	err     error // the first failure of the server or an executor
}

// newCluster starts srv, which must sit on seat 0 of net, and takes over
// the net's deliveries.
func newCluster(net *vtime.Net, srv *Server) (*cluster, error) {
	if err := srv.start(); err != nil {
		return nil, err
	}
	c := &cluster{net: net, srv: srv, execs: make(map[int]*node.Executor)}
	net.Deliver = c.deliver
	c.step(event{kind: wake})
	c.retryAt = srv.RetryAfter.Nanoseconds()
	net.At(c.retryAt, c.retry)
	if hb := srv.Heartbeat.Nanoseconds(); hb > 0 {
		net.Every(hb, func() bool {
			c.step(event{kind: detectorTick})
			return !c.done
		})
	}
	return c, c.err
}

// step is the server's half of the driver: one Server.step, then the retry
// window restarted if dispatch progressed.
func (c *cluster) step(ev event) {
	if c.done {
		return
	}
	progress, done, err := c.srv.step(ev)
	c.done = done
	if err != nil && c.err == nil {
		c.err = err
	}
	if progress {
		c.retryAt = c.net.Now() + c.srv.RetryAfter.Nanoseconds()
	}
}

// retry is the retry timer. One callback is pending however often the
// window restarts: it reads retryAt when it runs and goes back to sleep if
// the window has moved on. A RetryFire step always moves it.
func (c *cluster) retry() {
	if c.done {
		return
	}
	if c.net.Now() >= c.retryAt {
		c.step(event{kind: retryFire})
	}
	c.net.At(c.retryAt, c.retry)
}

// add starts ex on its seat: the join announcement, if it makes one, and
// its heartbeats.
func (c *cluster) add(ex *node.Executor) error {
	if err := ex.Start(); err != nil {
		return err
	}
	c.execs[ex.Place] = ex
	if hb := ex.Heartbeat.Nanoseconds(); hb > 0 {
		c.net.Every(hb, func() bool {
			if c.execs[ex.Place] != ex || c.net.Crashed(ex.Place) {
				return false
			}
			ex.Beat()
			return true
		})
	}
	return nil
}

// deliver routes an arriving frame to the loop that owns its seat.
func (c *cluster) deliver(to int, m comm.Message) {
	switch ex := c.execs[to]; {
	case to == 0:
		c.step(event{kind: arrival, msg: m})
	case ex != nil:
		stop, err := ex.Handle(m)
		if err != nil && c.err == nil {
			c.err = err
		}
		if stop || err != nil {
			delete(c.execs, to)
		}
	case to >= c.srv.Places && c.client != nil:
		c.client(to, m)
	}
}

// The constants of a simulated cluster. SimConfig describes the offered
// load; the machine it is offered to is fixed.
const (
	// simLinkNS is the one-way latency of every link: half the loopback
	// TCP mesh round trip in benchmark/README.md's ledger.
	simLinkNS = 10_000
	// simHeartbeat is the executors' heartbeat cadence and the front door's
	// detector period.
	simHeartbeat = 50 * time.Millisecond
	// simTask is the one registered task: it works for the duration in its
	// argument, like distws-serve's svc.sleep.
	simTask = "sim.work"
)

// Simulate runs the real service on virtual time: a Server (Admission,
// FairShare, the dispatch loop and its member.Table) at seat 0 of a
// vtime.Net, cfg.Slots node.Executors on the seats after it, and one
// client seat per tenant submitting on a Poisson clock until DurationNS.
// Every submission is a KindSubmit frame, every dispatch a KindSpawn into
// an executor's window, and a job's exponential service time is virtual
// time its executor spends before the KindSpawnDone departs. Churn is the
// real protocol too: Executor.Drain, or a KindJoin from a seat the server
// listed as Absent. Everything derives from cfg.Seed on one goroutine — no
// wall clock, no map-order dependence — so the report is bit-identical
// across runs.
func Simulate(cfg SimConfig) (*SimReport, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("service: simulate with %d slots, want >= 1", cfg.Slots)
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("service: simulate with no tenants")
	}
	if cfg.DurationNS <= 0 {
		return nil, fmt.Errorf("service: simulate with horizon %d, want > 0", cfg.DurationNS)
	}
	tcfg := make(map[uint32]TenantConfig, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		if t.ArrivalHz <= 0 {
			return nil, fmt.Errorf("service: tenant %d arrival rate %g, want > 0", t.Tenant, t.ArrivalHz)
		}
		tcfg[t.Tenant] = t.Config
	}
	// Seats: the server, the initial executors, one absent seat for every
	// executor the churn will add, then the clients.
	places := 1 + cfg.Slots
	var absent []int
	for _, ch := range cfg.Churn {
		for i := 0; i < ch.DeltaSlots; i++ {
			absent = append(absent, places)
			places++
		}
	}
	net := vtime.NewNet(places+len(cfg.Tenants), simLinkNS, nil)
	reg := task.NewRegistry()
	reg.Register(simTask, func([]byte) error { return nil })
	stats := NewStats()
	var ctrs metrics.Counters
	srv := &Server{
		Node: net.Seat(0), Places: places, Tenants: tcfg, Registry: reg, Counters: &ctrs, Stats: stats,
		Quantum: cfg.Quantum, Heartbeat: simHeartbeat, Absent: absent, Clock: net.Now,
	}
	c, err := newCluster(net, srv)
	if err != nil {
		return nil, err
	}
	var endNS int64
	c.client = func(_ int, m comm.Message) {
		if m.Kind == comm.KindJobDone {
			endNS = net.Now()
		}
	}
	var serving []*node.Executor // not draining, in joining order
	join := func(p int, announce bool) {
		seat := net.Seat(p)
		ex := &node.Executor{
			Node: seat, Place: p, Registry: reg, Heartbeat: simHeartbeat, Announce: announce,
			Run: func(_ string, arg []byte) ([]byte, error) {
				seat.Work(int64(binary.BigEndian.Uint64(arg)))
				return nil, nil
			},
		}
		serving = append(serving, ex)
		if err := c.add(ex); err != nil && c.err == nil {
			c.err = err
		}
	}
	for p := 1; p <= cfg.Slots; p++ {
		join(p, false)
	}
	for _, ch := range cfg.Churn {
		net.At(ch.AtNS, func() {
			for i := 0; i < ch.DeltaSlots; i++ {
				join(absent[0], true)
				absent = absent[1:]
			}
			for i := 0; i > ch.DeltaSlots && len(serving) > 1; i-- {
				serving[len(serving)-1].Drain()
				serving = serving[:len(serving)-1]
			}
		})
	}

	// One stream per tenant draws its inter-arrival gaps and its service
	// times, so a tenant's offered load does not depend on the others'.
	var sent int64
	open := len(cfg.Tenants)
	for i, t := range cfg.Tenants {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t.Tenant)))
		seat := net.Seat(places + i)
		gap := func() int64 { return int64(rng.ExpFloat64() / t.ArrivalHz * 1e9) }
		var id uint64
		var arrive func()
		arrive = func() {
			id++
			sent++
			svc := max(int64(rng.ExpFloat64()*float64(t.MeanServiceNS)), 1)
			job := Job{Tenant: t.Tenant, ID: id, Name: simTask, Priority: t.Priority,
				Arg: binary.BigEndian.AppendUint64(nil, uint64(svc))}
			seat.Send(comm.Message{Kind: comm.KindSubmit, To: 0, Seq: id, Payload: AppendJob(nil, job)})
			if next := net.Now() + gap(); next < cfg.DurationNS {
				net.At(next, arrive)
			} else {
				open--
			}
		}
		net.At(gap(), arrive)
	}

	// The run drains once the last submission has reached the front door:
	// every admitted job still completes, then the executors are released
	// and, with nothing left to tick, the net runs dry.
	draining := false
	for net.Step() && c.err == nil {
		if !draining && open == 0 && sent == ctrs.JobsSubmitted.Load() {
			draining = true
			srv.Drain()
			c.step(event{kind: wake})
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if !c.done {
		return nil, fmt.Errorf("service: simulation stalled with %d jobs unfinished", len(srv.live))
	}

	report := &SimReport{Config: cfg, EndNS: endNS}
	ids := make([]uint32, 0, len(cfg.Tenants))
	weights := srv.adm.Weights()
	for _, t := range cfg.Tenants {
		ids = append(ids, t.Tenant)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	shares := make([]float64, 0, len(ids))
	for _, id := range ids {
		st := stats.Tenant(id)
		report.Tenants = append(report.Tenants, SimTenantResult{
			Tenant:     id,
			Weight:     weights[id],
			Submitted:  st.Submitted.Load(),
			Admitted:   st.Admitted.Load(),
			Rejected:   st.Rejected.Load(),
			Completed:  st.Completed.Load(),
			P50:        st.Latency.Quantile(0.5),
			P99:        st.Latency.Quantile(0.99),
			P999:       st.Latency.Quantile(0.999),
			MeanWaitNS: st.QueueWait.Mean(),
		})
		shares = append(shares, float64(st.Completed.Load())/float64(weights[id]))
	}
	report.Jain = JainIndex(shares)
	return report, nil
}
