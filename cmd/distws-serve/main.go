// Command distws-serve runs the elastic multi-tenant task service
// (internal/service) as a long-lived daemon over TCP. One process per
// compute place:
//
//   - place 0 is the service front door: it admits streamed job
//     submissions per tenant (token-bucket rate + in-flight quota),
//     schedules admitted jobs across the executors with weighted
//     deficit round robin, and accounts every job exactly once through
//     executor joins, drains, and failures.
//   - places 1..places-1 are executors: each runs the service task set
//     ("svc.echo", "svc.sleep") with -workers concurrent jobs.
//
// Places talk over a peer-to-peer TCP mesh (internal/comm's TCPMesh):
// -addrs lists one listen address per seat, compute places first, and the
// seats at or beyond -places are client seats, reserved for distws-load
// (or any submitter speaking the job wire protocol). Processes may start
// in any order: a seat retries its dial to place 0 for about 0.75 s. A
// 3-place service with one client seat:
//
//	A=127.0.0.1:4242,127.0.0.1:4243,127.0.0.1:4244,127.0.0.1:4245
//	distws-serve -addrs $A -places 3 -place 0 -tenants "1:w=1,inflight=8;2:w=3,inflight=8" &
//	distws-serve -addrs $A -places 3 -place 1 &
//	distws-serve -addrs $A -places 3 -place 2 &
//	distws-load  -addrs $A -places 3 -seat 3 \
//	    -spec "1:w=1,clients=2,jobs=200,task=svc.sleep;2:w=3,clients=2,jobs=200,task=svc.sleep"
//
// SIGTERM (or SIGINT) drains gracefully in both roles: the front door
// nacks new submissions with NackDraining and finishes every admitted
// job; an executor announces KindDrain, finishes its queue, and exits
// when released. With -listen, /metrics carries the aggregate counters
// plus the per-tenant service families (distws_tenant_*).
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"distws/internal/cliutil"
	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/service"
	"distws/internal/task"
)

// maxSleep caps svc.sleep's duration, so one job cannot park an executor
// worker for longer.
const maxSleep = 10 * time.Second

func init() {
	// The service task set: registered in the front door (name and
	// argument checks at admission) and the executors (name resolution);
	// runTask is what an executor runs.
	task.DefaultRegistry.Register("svc.echo", func([]byte) error { return nil })
	task.DefaultRegistry.Register("svc.sleep", func(arg []byte) error {
		if len(arg) != 8 {
			return fmt.Errorf("svc.sleep wants an 8-byte big-endian duration, got %d bytes", len(arg))
		}
		if d := binary.BigEndian.Uint64(arg); d > uint64(maxSleep) {
			return fmt.Errorf("svc.sleep sleeps at most %v, got %d ns", maxSleep, d)
		}
		return nil
	})
}

// runTask executes one dispatched service job on an executor.
func runTask(name string, arg []byte) ([]byte, error) {
	switch name {
	case "svc.sleep":
		time.Sleep(time.Duration(binary.BigEndian.Uint64(arg)))
	}
	return arg, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distws-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		place     = flag.Int("place", 0, "this process's place id (0 = service front door)")
		places    = flag.Int("places", 3, "compute places: front door + executors")
		addrs     = flag.String("addrs", "", "comma-separated per-seat listen addresses, compute places first")
		tenants   = flag.String("tenants", "", `tenant admission spec, e.g. "1:w=1,rate=100,burst=10,inflight=8;2:w=3" (front door)`)
		workers   = flag.Int("workers", 2, "concurrent jobs per executor")
		window    = flag.Int("window", 8, "outstanding jobs per executor (front door)")
		quantum   = flag.Int("quantum", 1, "fair-share credit per scheduler visit (front door)")
		retry     = flag.Duration("retry", 5*time.Second, "silence before outstanding jobs are re-dispatched (front door)")
		joinWait  = flag.Duration("join-timeout", 30*time.Second, "how long the front door waits for its executors")
		heartbeat = flag.Duration("hb", 0, "heartbeat cadence; arms the failure detector on the front door, beats on an executor (0 = off)")
		joinLate  = flag.Bool("join", false, "announce this executor as a runtime joiner (pair with the front door's -absent)")
		absent    = flag.String("absent", "", "comma-separated executor places absent at start that will -join later (front door)")
		incarn    = flag.Uint("incarnation", 0, "this executor's starting incarnation (0 = 1)")
	)
	diag := cliutil.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if cliutil.VersionRequested() {
		cliutil.PrintVersion(os.Stdout, "distws-serve")
		return nil
	}

	if *places < 2 {
		return fmt.Errorf("-places %d: the service needs a front door and at least one executor", *places)
	}
	if *addrs == "" {
		return fmt.Errorf("need -addrs (comma-separated, one per seat)")
	}
	seats := strings.Split(*addrs, ",")
	if len(seats) < *places {
		return fmt.Errorf("%d seats in -addrs cannot hold %d compute places", len(seats), *places)
	}
	if *place >= *places {
		return fmt.Errorf("-place %d is a client seat (compute places are 0..%d); clients run distws-load", *place, *places-1)
	}

	if err := diag.Start(); err != nil {
		return err
	}
	defer diag.Stop()

	var ctrs metrics.Counters
	diag.Server().SetMetricsSource(ctrs.Snapshot)

	n, err := comm.ListenMeshTCP(seats, *place, comm.MeshOptions{Counters: &ctrs, Incarnation: uint32(*incarn)})
	if err != nil {
		return err
	}
	defer n.Close()

	// Both roles drain on SIGTERM/SIGINT instead of dying mid-job.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigs)

	if *place == 0 {
		err = serveFrontDoor(n, diag, &ctrs, sigs, *places, *tenants, *window,
			*quantum, *retry, *joinWait, *heartbeat, *absent)
	} else {
		err = serveExecutor(n, sigs, *place, *workers, *heartbeat, *joinLate, uint32(*incarn))
	}
	if err != nil {
		return err
	}
	return diag.Stop()
}

// serveFrontDoor runs place 0: the admission + fair-share event loop.
func serveFrontDoor(n *comm.TCPMesh, diag *cliutil.Diagnostics, ctrs *metrics.Counters,
	sigs chan os.Signal, places int, tenantSpec string, window, quantum int,
	retry, joinWait, heartbeat time.Duration, absent string) error {
	if tenantSpec == "" {
		return fmt.Errorf("the front door needs -tenants (admission spec per tenant)")
	}
	tcfg, err := service.ParseTenantSpec(tenantSpec)
	if err != nil {
		return err
	}
	absentPlaces, err := parseAbsent(absent)
	if err != nil {
		return err
	}
	// Wait for the executors that should be present at start, by place:
	// client seats attach whenever they like, so full assembly never
	// applies, and one that attaches first is not an executor.
	var waitFor []int
	for p := 1; p < places; p++ {
		if !slices.Contains(absentPlaces, p) {
			waitFor = append(waitFor, p)
		}
	}
	if err := n.AwaitPeers(waitFor, joinWait); err != nil {
		return err
	}
	stats := service.NewStats()
	diag.Server().SetAuxMetrics(func(w io.Writer) { stats.WritePrometheus(w) })

	srv := &service.Server{
		Node:       n,
		Places:     places,
		Tenants:    tcfg,
		Counters:   ctrs,
		Stats:      stats,
		Window:     window,
		Quantum:    quantum,
		RetryAfter: retry,
		Heartbeat:  heartbeat,
		Absent:     absentPlaces,
		Logf: func(format string, a ...any) {
			fmt.Printf(format+"\n", a...)
		},
	}
	go func() {
		if sig, ok := <-sigs; ok {
			fmt.Printf("server: %v received, draining\n", sig)
			srv.Drain()
		}
	}()
	fmt.Printf("server: front door up, %d executor seat(s), %d tenant(s)\n",
		places-1, len(tcfg))
	err = srv.Serve(context.Background())
	if err == service.ErrServerClosed {
		fmt.Println("server: drain complete")
		err = nil
	}
	return err
}

// serveExecutor runs a compute place >= 1: execute dispatched jobs.
func serveExecutor(n comm.Endpoint, sigs chan os.Signal, place, workers int,
	heartbeat time.Duration, joinLate bool, incarnation uint32) error {
	ex := &node.Executor{
		Node:        n,
		Place:       place,
		Run:         runTask,
		Concurrency: workers,
		Heartbeat:   heartbeat,
		Announce:    joinLate,
		Incarnation: incarnation,
		Logf: func(format string, a ...any) {
			fmt.Printf(format+"\n", a...)
		},
	}
	go func() {
		if sig, ok := <-sigs; ok {
			fmt.Printf("executor %d: %v received, draining\n", place, sig)
			ex.Drain()
		}
	}()
	fmt.Printf("executor %d: serving with %d worker(s)\n", place, workers)
	ran, err := ex.Serve()
	if err == nil {
		fmt.Printf("executor %d: done, %d job(s) executed\n", place, ran)
	}
	return err
}

// parseAbsent parses the front door's -absent list of late joiners.
func parseAbsent(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var p int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &p); err != nil || p <= 0 {
			return nil, fmt.Errorf("-absent: bad place %q (want ids > 0)", part)
		}
		out = append(out, p)
	}
	return out, nil
}
