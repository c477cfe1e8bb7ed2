// Command distws-load drives sustained multi-tenant load at a running
// distws-serve cluster from a client seat and reports per-tenant
// throughput, latency quantiles (p50/p99/p999), rejection reasons, and
// Jain's fairness index over completed-per-weight shares.
//
// The traffic mix is one -spec clause per tenant:
//
//	distws-load -addrs $A -places 3 -seat 3 -sleep 5ms \
//	    -spec "1:w=1,clients=2,jobs=200,task=svc.sleep;2:w=3,clients=2,jobs=200,task=svc.sleep"
//
// where $A is the cluster's -addrs list (see distws-serve) and -seat one
// of its client seats.
//
// The clauses have distws-serve -tenants' grammar (service.ParseClauses).
// Clause keys: w (fair-share weight, report only), clients (closed-loop
// concurrency), jobs (submission budget, 0 = until -duration), open
// (open-loop Poisson submission rate in Hz), task (registered task
// name), prio (intra-tenant priority). Closed-loop tenants keep
// `clients` calls in flight; open-loop tenants submit on a seeded
// Poisson clock regardless of completions. A key the selected mode
// does not read is refused.
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
		seat     = flag.Int("seat", 3, "this client's seat in -addrs (>= the cluster's -places)")
		places   = flag.Int("places", 3, "the cluster's compute places (seat validation)")
		addrs    = flag.String("addrs", "", "the cluster's comma-separated per-seat listen addresses")
		spec     = flag.String("spec", "", "per-tenant traffic clauses (see package doc)")
		sleepArg = flag.Duration("sleep", 5*time.Millisecond, "argument sent with svc.sleep jobs")
		duration = flag.Duration("duration", 0, "stop submitting after this long (0 = when budgets are spent); sim horizon")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-call reply timeout")
		seed     = flag.Int64("seed", 1, "seed for open-loop arrivals and the simulator")
		sim      = flag.Bool("sim", false, "simulate on virtual time instead of contacting a cluster")
		slots    = flag.Int("slots", 4, "executor capacity in sim mode (concurrent jobs)")
		quantum  = flag.Int("quantum", 1, "fair-share credit per scheduler visit (sim)")
		churn    = flag.String("churn", "", `sim capacity churn, e.g. "500ms:-2;1s:+2"`)
		verify   = flag.Bool("verify", false, "sim only: run twice and fail unless reports are byte-identical")
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
	if *sim {
		tenants, err := parseSimSpec(*spec)
		if err != nil {
			return err
		}
		return runSim(tenants, *seed, *slots, *quantum, *duration, *churn, *verify)
	}
	loads, err := parseLoadSpec(*spec)
	if err != nil {
		return err
	}

	if err := diag.Start(); err != nil {
		return err
	}
	defer diag.Stop()

	if *addrs == "" {
		return fmt.Errorf("need -addrs (comma-separated, one per seat)")
	}
	seats := strings.Split(*addrs, ",")
	if *seat < *places || *seat >= len(seats) {
		return fmt.Errorf("-seat %d: client seats are %d..%d", *seat, *places, len(seats)-1)
	}
	var ctrs metrics.Counters
	diag.Server().SetMetricsSource(ctrs.Snapshot)

	n, err := comm.ListenMeshTCP(seats, *seat, comm.MeshOptions{Counters: &ctrs})
	if err != nil {
		return err
	}
	defer n.Close()

	lcfg := service.LoadConfig{Seed: *seed, CallTimeout: *timeout}
	for _, tl := range loads {
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
	fmt.Printf("load: %d tenant(s) against tcp-mesh seat %d\n", len(lcfg.Tenants), *seat)
	report, err := service.RunLoad(ctx, service.NewClient(n, 0), lcfg)
	if err != nil {
		return err
	}
	fmt.Print(report.Format())
	return diag.Stop()
}

// runSim runs the deterministic virtual-time service model.
func runSim(tenants []service.SimTenant, seed int64, slots, quantum int,
	horizon time.Duration, churnSpec string, verify bool) error {
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	cfg := service.SimConfig{
		Seed:       seed,
		Slots:      slots,
		Quantum:    quantum,
		DurationNS: horizon.Nanoseconds(),
		Tenants:    tenants,
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

// parseLoadSpec parses the per-tenant traffic clauses against a live
// cluster, in clause order.
func parseLoadSpec(spec string) ([]service.TenantLoad, error) {
	var out []service.TenantLoad
	err := service.ParseClauses(spec, func(tenant uint32) func(key, value string) error {
		out = append(out, service.TenantLoad{Tenant: tenant, Weight: 1})
		tl := &out[len(out)-1] // no append until the clause's last key
		return func(k, v string) (err error) {
			switch k {
			case "w":
				_, err = fmt.Sscanf(v, "%d", &tl.Weight)
			case "clients":
				_, err = fmt.Sscanf(v, "%d", &tl.Clients)
			case "jobs":
				_, err = fmt.Sscanf(v, "%d", &tl.Jobs)
			case "open":
				_, err = fmt.Sscanf(v, "%g", &tl.RateHz)
			case "task":
				tl.Task = v
			case "prio":
				_, err = fmt.Sscanf(v, "%d", &tl.Priority)
			default:
				err = fmt.Errorf("key %q is not read against a live cluster (keys: w, clients, jobs, open, task, prio)", k)
			}
			return err
		}
	})
	return out, err
}

// parseSimSpec parses the per-tenant traffic clauses of -sim, in clause
// order.
func parseSimSpec(spec string) ([]service.SimTenant, error) {
	var out []service.SimTenant
	err := service.ParseClauses(spec, func(tenant uint32) func(key, value string) error {
		out = append(out, service.SimTenant{Tenant: tenant, Config: service.TenantConfig{Weight: 1}})
		st := &out[len(out)-1] // no append until the clause's last key
		return func(k, v string) (err error) {
			switch k {
			case "w":
				_, err = fmt.Sscanf(v, "%d", &st.Config.Weight)
			case "rate":
				_, err = fmt.Sscanf(v, "%g", &st.Config.Rate)
			case "burst":
				_, err = fmt.Sscanf(v, "%d", &st.Config.Burst)
			case "inflight":
				_, err = fmt.Sscanf(v, "%d", &st.Config.MaxInFlight)
			case "arrival":
				_, err = fmt.Sscanf(v, "%g", &st.ArrivalHz)
			case "svc":
				var d time.Duration
				d, err = time.ParseDuration(v)
				st.MeanServiceNS = d.Nanoseconds()
			case "prio":
				_, err = fmt.Sscanf(v, "%d", &st.Priority)
			default:
				err = fmt.Errorf("key %q is not read by -sim (keys: w, rate, burst, inflight, arrival, svc, prio)", k)
			}
			return err
		}
	})
	return out, err
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
