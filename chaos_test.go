// Chaos tests: the full application suite must survive a seeded fault
// plan — one place of four crashing mid-run plus 1% steal-message loss —
// under both the paper's DistWS policy and the X10WS baseline, with
// deterministic fault accounting in the simulator; and the service front
// door must survive an executor fail-stopping on a real TCP mesh.
package distws_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"distws"
	"distws/internal/apps/suite"
	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/sched"
	"distws/internal/service"
	"distws/internal/sim"
	"distws/internal/task"
	"distws/internal/topology"
)

func chaosCluster() topology.Cluster {
	c := topology.Paper()
	c.Places, c.WorkersPerPlace = 4, 2
	return c
}

func chaosPlan() *fault.Plan {
	return &fault.Plan{
		Seed:     42,
		DropProb: 0.01,
		Crashes:  []fault.Crash{{Place: 1, AtNS: 2_000_000}},
	}
}

// TestChaosSimSuite drives every paper-suite trace plus UTS through the
// simulator under the chaos plan: all tasks must still execute, each run
// must be bit-identical for a fixed seed, and the DistWS runs in aggregate
// must exercise the full fault machinery.
func TestChaosSimSuite(t *testing.T) {
	cl := chaosCluster()
	apps := append(suite.Paper(suite.Small, 1), suite.UTS(1))
	for _, k := range []sched.Kind{sched.DistWS, sched.X10WS} {
		var timeouts, retries, reExecuted, lost int64
		for _, app := range apps {
			g, err := app.Trace(cl.Places)
			if err != nil {
				t.Fatalf("%s trace: %v", app.Name(), err)
			}
			opts := sim.Options{Seed: 7, Fault: chaosPlan()}
			a, err := sim.Run(g, cl, k, opts)
			if err != nil {
				t.Fatalf("%s under %v: %v", app.Name(), k, err)
			}
			if int(a.Counters.TasksExecuted) != g.NumTasks() {
				t.Errorf("%s under %v: executed %d of %d tasks",
					app.Name(), k, a.Counters.TasksExecuted, g.NumTasks())
			}
			b, err := sim.Run(g, cl, k, opts)
			if err != nil {
				t.Fatalf("%s rerun: %v", app.Name(), err)
			}
			if a.MakespanNS != b.MakespanNS || a.Counters != b.Counters {
				t.Errorf("%s under %v: chaos run is nondeterministic", app.Name(), k)
			}
			timeouts += a.Counters.StealTimeouts
			retries += a.Counters.Retries
			reExecuted += a.Counters.TasksReExecuted
			lost += a.Counters.PlacesLost
		}
		if lost == 0 {
			t.Errorf("under %v no run recorded the planned crash", k)
		}
		if k == sched.DistWS {
			// Only policies with remote steals can lose steal messages.
			if timeouts == 0 || retries == 0 {
				t.Errorf("DistWS suite under 1%% loss: timeouts=%d retries=%d, want > 0",
					timeouts, retries)
			}
			if reExecuted == 0 {
				t.Errorf("DistWS suite: the mid-run crash re-executed no tasks")
			}
		}
	}
}

// TestChaosRuntimeApps runs real applications on the goroutine runtime
// with a place crashing early, checking results against the sequential
// reference. Exercises the public facade's fault types.
func TestChaosRuntimeApps(t *testing.T) {
	if testing.Short() {
		t.Skip("real-runtime chaos run")
	}
	for _, name := range []string{"quicksort", "kmeans"} {
		for _, pol := range []distws.Policy{distws.DistWS, distws.X10WS} {
			app, err := suite.ByName(name, suite.Small, 1)
			if err != nil {
				t.Fatalf("ByName(%s): %v", name, err)
			}
			rt, err := distws.New(distws.Config{
				Cluster: distws.Cluster{Places: 4, WorkersPerPlace: 2},
				Policy:  pol,
				Seed:    7,
				Fault: &distws.FaultPlan{
					Seed:     42,
					DropProb: 0.01,
					Crashes:  []distws.Crash{{Place: 1, AfterTasks: 3}},
				},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			got, err := app.Parallel(rt)
			if err != nil {
				rt.Shutdown()
				t.Fatalf("%s under %v: %v", name, pol, err)
			}
			if want := app.Sequential(); got != want {
				t.Errorf("%s under %v: checksum %x, want %x", name, pol, got, want)
			}
			if s := rt.Metrics(); s.PlacesLost != 1 {
				t.Errorf("%s under %v: PlacesLost = %d, want 1", name, pol, s.PlacesLost)
			}
			rt.Shutdown()
		}
	}
}

// loopbackMeshes opens a tcp-mesh of seats places on loopback, listeners
// pre-bound so the address list is race-free, with place 0 counting into
// ctrs and every place under plan when it is not nil. The meshes close at
// cleanup, including any the test swaps in for a restarted place.
func loopbackMeshes(t *testing.T, seats int, ctrs *metrics.Counters, plan *fault.Plan) ([]string, []*comm.TCPMesh) {
	t.Helper()
	lns := make([]net.Listener, seats)
	addrs := make([]string, seats)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	meshes := make([]*comm.TCPMesh, seats)
	t.Cleanup(func() {
		for _, m := range meshes {
			if m != nil {
				m.Close()
			}
		}
	})
	for i := range meshes {
		opts := comm.MeshOptions{Listener: lns[i]}
		if i == 0 {
			opts.Counters = ctrs
		}
		m, err := comm.ListenMeshTCP(addrs, i, opts)
		if err != nil {
			t.Fatalf("mesh %d: %v", i, err)
		}
		if plan != nil {
			m.InjectFaults(fault.NewInjector(plan))
		}
		meshes[i] = m
	}
	return addrs, meshes
}

// u64s is the job argument and result codec of the socket tests:
// big-endian uint64.
func u64s(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// callEach submits jobs of the named task, with arguments 0..jobs-1, and
// checks that each is answered once, completed, with want of its argument.
func callEach(t *testing.T, c *service.Client, name string, jobs int, want func(uint64) uint64) {
	t.Helper()
	replies := make([]<-chan service.Reply, jobs)
	for i := range replies {
		ch, err := c.Submit(service.Job{Tenant: 1, Name: name, Arg: u64s(uint64(i))})
		if err != nil {
			t.Fatal(err)
		}
		replies[i] = ch
	}
	for i, ch := range replies {
		select {
		case r := <-ch:
			if r.Code != service.OK || binary.BigEndian.Uint64(r.Result) != want(uint64(i)) {
				t.Fatalf("job %d: reply %+v, want result %d", i, r, want(uint64(i)))
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("job %d never answered", i)
		}
	}
}

// errCrashed is how the Serve of an executor failStop killed ends.
var errCrashed = errors.New("fail-stop")

// failStop wraps run so that the executor's process dies on job n+1: its
// transport closes, taking its links along, and Serve ends with
// errCrashed.
func failStop(run func(string, []byte) ([]byte, error), n int, link *comm.TCPMesh) func(string, []byte) ([]byte, error) {
	var ran atomic.Int64
	return func(name string, arg []byte) ([]byte, error) {
		if ran.Add(1) > int64(n) {
			link.Close()
			return nil, errCrashed
		}
		return run(name, arg)
	}
}

// TestChaosMeshNode runs the service front door over the peer-to-peer
// tcp-mesh transport with one executor fail-stopping on its third job.
// The server must see the crash through the mesh's typed place-down
// surface, re-dispatch the orphaned jobs, and still answer every job
// exactly once.
func TestChaosMeshNode(t *testing.T) {
	const places, jobs, crashPlace = 4, 24, 2

	reg := task.NewRegistry()
	reg.Register("chaos.echo", func([]byte) error { return nil })
	want := func(v uint64) uint64 { return v*7 + 1 }
	echo := func(_ string, arg []byte) ([]byte, error) {
		return u64s(want(binary.BigEndian.Uint64(arg))), nil
	}

	var ctrs metrics.Counters
	_, nodes := loopbackMeshes(t, places+1, &ctrs, nil) // + the client seat
	if err := nodes[0].AwaitTimeout(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	exDone := make(chan error, places-1)
	for p := 1; p < places; p++ {
		ex := &node.Executor{Node: nodes[p], Place: p, Registry: reg, Run: echo}
		if p == crashPlace {
			ex.Run = failStop(echo, 2, nodes[p])
		}
		go func() { _, err := ex.Serve(); exDone <- err }()
	}

	srv := &service.Server{Node: nodes[0], Places: places, Tenants: map[uint32]service.TenantConfig{1: {}},
		Registry: reg, Counters: &ctrs, RetryAfter: 300 * time.Millisecond}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background()) }()
	callEach(t, service.NewClient(nodes[places], 0), "chaos.echo", jobs, want)
	if got := ctrs.JobsCompleted.Load(); got != jobs {
		t.Errorf("JobsCompleted = %d, want %d: a job completed twice or not at all", got, jobs)
	}

	srv.Drain()
	if err := <-serveDone; !errors.Is(err, service.ErrServerClosed) {
		t.Fatalf("Serve after drain: %v, want ErrServerClosed", err)
	}
	for p := 1; p < places; p++ {
		if err := <-exDone; err != nil && !errors.Is(err, errCrashed) {
			t.Fatalf("executor: %v", err)
		}
	}
	s := ctrs.Snapshot()
	if s.PlacesLost != 1 {
		t.Errorf("PlacesLost = %d, want 1 (the fail-stopped executor)", s.PlacesLost)
	}
	if s.TasksReExecuted == 0 {
		t.Errorf("crash with outstanding jobs re-dispatched nothing")
	}
	if !nodes[0].Down(crashPlace) {
		t.Errorf("the front door's mesh should have marked place %d down", crashPlace)
	}
}
