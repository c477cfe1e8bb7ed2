// Command distws-load drives sustained multi-tenant load at a running
// distws-serve cluster from a client seat and reports per-tenant
// throughput, latency quantiles (p50/p99/p999), rejection reasons, and
// Jain's fairness index over completed-per-weight shares.
//
// The traffic mix is one -spec clause per tenant:
//
//	distws-load -seat 3 -seats 5 -addr 127.0.0.1:4242 \
//	    -spec "1:w=1,clients=2,jobs=200,task=svc.sleep;2:w=3,clients=2,jobs=200,task=svc.sleep" \
//	    -sleep 5ms
//
// Clause keys: w (fair-share weight, report only), clients (closed-loop
// concurrency), jobs (submission budget, 0 = until -duration), open
// (open-loop Poisson submission rate in Hz), task (registered task
// name), prio (intra-tenant priority). Closed-loop tenants keep
// `clients` calls in flight; open-loop tenants submit on a seeded
// Poisson clock regardless of completions.
//
// With -sim no cluster is contacted: internal/service.Simulate builds the
// real front door and -slots real executors on an in-memory network and
// runs them on virtual time, so a fixed -seed renders a bit-identical
// report — the mode the soak harness uses. -churn drains (negative) or
// joins (positive) executors mid-run. Sim clause keys: w, rate, burst,
// inflight (admission), arrival (Poisson submission Hz), svc (mean
// service time), prio.
//
//	distws-load -sim -seed 7 -slots 4 -duration 2s \
//	    -spec "1:w=1,arrival=5000,svc=1ms,inflight=32;2:w=3,arrival=5000,svc=1ms,inflight=32"
//
// -verify runs the simulation twice and fails unless the two reports
// are byte-identical, pinning the determinism contract from the shell.
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distws/internal/cliutil"
	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distws-load:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		transport = flag.String("transport", "tcp-hub", "cluster transport: tcp-hub or tcp-mesh")
		seat      = flag.Int("seat", 3, "this client's transport seat (>= the cluster's -places)")
		seats     = flag.Int("seats", 0, "total transport seats, matching the cluster (tcp-hub; default places+4)")
		places    = flag.Int("places", 3, "the cluster's compute places (seat validation)")
		addr      = flag.String("addr", "127.0.0.1:4242", "front-door address (tcp-hub)")
		addrs     = flag.String("addrs", "", "comma-separated per-seat listen addresses (tcp-mesh)")
		spec      = flag.String("spec", "", "per-tenant traffic clauses (see package doc)")
		sleepArg  = flag.Duration("sleep", 5*time.Millisecond, "argument sent with svc.sleep jobs")
		duration  = flag.Duration("duration", 0, "stop submitting after this long (0 = when budgets are spent); sim horizon")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-call reply timeout")
		seed      = flag.Int64("seed", 1, "seed for open-loop arrivals and the simulator")
		sim       = flag.Bool("sim", false, "simulate on virtual time instead of contacting a cluster")
		slots     = flag.Int("slots", 4, "executor capacity in sim mode (concurrent jobs)")
		quantum   = flag.Int("quantum", 1, "fair-share credit per scheduler visit (sim)")
		churn     = flag.String("churn", "", `sim capacity churn, e.g. "500ms:-2;1s:+2"`)
		verify    = flag.Bool("verify", false, "sim only: run twice and fail unless reports are byte-identical")
	)
	diag := cliutil.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if cliutil.VersionRequested() {
		cliutil.PrintVersion(os.Stdout, "distws-load")
		return nil
	}
	if *spec == "" {
		return fmt.Errorf("need -spec (per-tenant traffic clauses)")
	}
	clauses, err := parseLoadSpec(*spec)
	if err != nil {
		return err
	}
	if *sim {
		return runSim(clauses, *seed, *slots, *quantum, *duration, *churn, *verify)
	}

	if err := diag.Start(); err != nil {
		return err
	}
	defer diag.Stop()

	tr, err := comm.ParseTransport(*transport)
	if err != nil {
		return err
	}
	if tr == comm.TransportInproc {
		return fmt.Errorf("inproc runs in one process — use the service package directly; pick tcp-hub or tcp-mesh here")
	}
	total := *seats
	if total == 0 {
		total = *places + 4
	}
	cfg := comm.NodeConfig{Transport: tr, Place: *seat, Places: total, Addr: *addr}
	if tr == comm.TransportTCPMesh {
		if *addrs == "" {
			return fmt.Errorf("tcp-mesh needs -addrs (comma-separated, one per seat)")
		}
		cfg.Addrs = strings.Split(*addrs, ",")
		cfg.Places = len(cfg.Addrs)
	}
	if *seat < *places || *seat >= cfg.Places {
		return fmt.Errorf("-seat %d: client seats are %d..%d", *seat, *places, cfg.Places-1)
	}
	var ctrs metrics.Counters
	diag.Server().SetMetricsSource(ctrs.Snapshot)
	cfg.Counters = &ctrs

	n, err := comm.Open(cfg)
	if err != nil {
		return err
	}
	defer n.Close()

	lcfg := service.LoadConfig{Seed: *seed, CallTimeout: *timeout}
	for _, cl := range clauses {
		tl := cl.load
		if tl.Task == "" {
			tl.Task = "svc.sleep"
		}
		if tl.Task == "svc.sleep" {
			tl.Arg = binary.BigEndian.AppendUint64(nil, uint64(*sleepArg))
		}
		lcfg.Tenants = append(lcfg.Tenants, tl)
	}

	ctx := context.Background()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	fmt.Printf("load: %d tenant(s) against %s seat %d\n", len(lcfg.Tenants), tr, *seat)
	report, err := service.RunLoad(ctx, service.NewClient(n, 0), lcfg)
	if err != nil {
		return err
	}
	fmt.Print(report.Format())
	return diag.Stop()
}

// runSim runs the deterministic virtual-time service model.
func runSim(clauses []loadClause, seed int64, slots, quantum int,
	horizon time.Duration, churnSpec string, verify bool) error {
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	cfg := service.SimConfig{
		Seed:       seed,
		Slots:      slots,
		Quantum:    quantum,
		DurationNS: horizon.Nanoseconds(),
	}
	for _, cl := range clauses {
		cfg.Tenants = append(cfg.Tenants, cl.sim)
	}
	churn, err := parseChurn(churnSpec)
	if err != nil {
		return err
	}
	cfg.Churn = churn

	report, err := service.Simulate(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.Format())
	if verify {
		again, err := service.Simulate(cfg)
		if err != nil {
			return err
		}
		if report.Format() != again.Format() {
			return fmt.Errorf("sim verify: two runs of seed %d differ:\n%s", seed, again.Format())
		}
		fmt.Println("sim verify: rerun is byte-identical")
	}
	return nil
}

// loadClause is one parsed -spec clause, usable by both modes.
type loadClause struct {
	load service.TenantLoad
	sim  service.SimTenant
}

// parseLoadSpec parses the per-tenant traffic clauses. Each clause is
// `id:` followed by comma-separated key=value pairs; keys unused by the
// selected mode are ignored.
func parseLoadSpec(spec string) ([]loadClause, error) {
	var out []loadClause
	seen := map[uint32]bool{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		id, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("load clause %q, want id:k=v,...", clause)
		}
		var tenant uint32
		if _, err := fmt.Sscanf(strings.TrimSpace(id), "%d", &tenant); err != nil {
			return nil, fmt.Errorf("tenant id %q: %w", id, err)
		}
		if seen[tenant] {
			return nil, fmt.Errorf("tenant %d appears twice", tenant)
		}
		seen[tenant] = true
		cl := loadClause{
			load: service.TenantLoad{Tenant: tenant, Weight: 1},
			sim:  service.SimTenant{Tenant: tenant, Config: service.TenantConfig{Weight: 1}},
		}
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("tenant %d option %q, want k=v", tenant, kv)
			}
			var err error
			switch k {
			case "w":
				if _, err = fmt.Sscanf(v, "%d", &cl.load.Weight); err == nil {
					cl.sim.Config.Weight = cl.load.Weight
				}
			case "clients":
				_, err = fmt.Sscanf(v, "%d", &cl.load.Clients)
			case "jobs":
				_, err = fmt.Sscanf(v, "%d", &cl.load.Jobs)
			case "open":
				_, err = fmt.Sscanf(v, "%g", &cl.load.RateHz)
			case "task":
				cl.load.Task = v
			case "prio":
				var p int
				if _, err = fmt.Sscanf(v, "%d", &p); err == nil {
					cl.load.Priority = uint8(p)
					cl.sim.Priority = uint8(p)
				}
			case "arrival":
				_, err = fmt.Sscanf(v, "%g", &cl.sim.ArrivalHz)
			case "svc":
				var d time.Duration
				if d, err = time.ParseDuration(v); err == nil {
					cl.sim.MeanServiceNS = d.Nanoseconds()
				}
			case "rate":
				_, err = fmt.Sscanf(v, "%g", &cl.sim.Config.Rate)
			case "burst":
				_, err = fmt.Sscanf(v, "%d", &cl.sim.Config.Burst)
			case "inflight":
				_, err = fmt.Sscanf(v, "%d", &cl.sim.Config.MaxInFlight)
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("tenant %d option %q: %w", tenant, kv, err)
			}
		}
		out = append(out, cl)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("load spec %q has no tenants", spec)
	}
	return out, nil
}

// parseChurn parses "500ms:-2;1s:+2" into sim churn events.
func parseChurn(spec string) ([]service.SimChurn, error) {
	if spec == "" {
		return nil, nil
	}
	var out []service.SimChurn
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		at, delta, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("churn clause %q, want at:±slots", clause)
		}
		d, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil {
			return nil, fmt.Errorf("churn clause %q: %w", clause, err)
		}
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(delta), "%d", &n); err != nil {
			return nil, fmt.Errorf("churn clause %q: %w", clause, err)
		}
		out = append(out, service.SimChurn{AtNS: d.Nanoseconds(), DeltaSlots: n})
	}
	return out, nil
}
