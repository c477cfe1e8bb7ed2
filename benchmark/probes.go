package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/apps/linalg"
	"distws/internal/comm"
	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/deque"
	"distws/internal/metrics"
	"distws/internal/sched"
	"distws/internal/service"
	"distws/internal/task"
	"distws/internal/topology"
)

// prober runs the fixed per-layer probes: small loops over each layer's
// public functions with harness-owned bodies, the same in every traced run
// whatever workload was selected, so a layer's own cost is on record next
// to the workload numbers it should explain.
type prober struct {
	e  env
	tr *tracer
	r  rows
}

// nsPerOp times batches of iters calls of fn and returns the median batch's
// cost per call, under one span.
func (p *prober) nsPerOp(layer, name string, iters int, fn func()) float64 {
	if p.e.quick {
		iters = max(1, iters/20)
	}
	const batches = 5
	s := p.tr.begin(layer, name, -1, 0)
	defer p.tr.end(s)
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

func runProbes(e env, tr *tracer) (rows, error) {
	p := &prober{e: e, tr: tr, r: rows{}}
	p.deques()
	for _, probe := range []func() error{p.core, p.dag, p.comm} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	p.codecs()
	return p.r, nil
}

func (p *prober) deques() {
	x := new(int)
	for _, k := range deque.Kinds() {
		q := deque.New[*int](k)
		p.r.set("deque."+k.String()+".pushpop_ns", p.nsPerOp("deque", k.String()+" Push+Pop", 200_000, func() {
			q.Push(x)
			q.Pop()
		}), "ns")

		p.r.set("deque."+k.String()+".steal_ns", p.stealNS(k), "ns")
		p.r.set("deque."+k.String()+".contended_steals_per_s", p.contended(k), "1/s")
	}
	var sh deque.Shared[*int]
	buf := make([]*int, 0, 2)
	p.r.set("deque.shared.stealchunk_ns", p.nsPerOp("deque", "Shared.StealChunkAppend", 200_000, func() {
		sh.Push(x)
		sh.Push(x)
		buf = sh.StealChunkAppend(buf[:0], 2)
	}), "ns")
}

// stealNS is the cost of one Steal by a lone thief from a deque nobody else
// touches: the floor under every steal the runtime makes.
func (p *prober) stealNS(k deque.Kind) float64 {
	fill := 4096
	if p.e.quick {
		fill = 256
	}
	s := p.tr.begin("deque", k.String()+" Steal", -1, 0)
	defer p.tr.end(s)
	q := deque.New[*int](k)
	x := new(int)
	per := make([]float64, 15)
	for b := range per {
		for i := 0; i < fill; i++ {
			q.Push(x)
		}
		start := time.Now()
		for i := 0; i < fill; i++ {
			q.Steal()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(fill)
	}
	return median(per)
}

// contended measures successful steals per second with the owner pushing
// and popping against P-1 thieves on real goroutines: the check on the
// simulator's contention model, which puts relaxed at >= 3.9x mutex.
func (p *prober) contended(k deque.Kind) float64 {
	window := 60 * time.Millisecond
	if p.e.quick {
		window = 5 * time.Millisecond
	}
	s := p.tr.begin("deque", k.String()+" contended", -1, 0)
	defer p.tr.end(s)
	q := deque.New[*int](k)
	x := new(int)
	var stop atomic.Bool
	var steals atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < max(1, p.e.p-1); t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			for !stop.Load() {
				if _, ok := q.Steal(); ok {
					n++
				}
			}
			steals.Add(n)
		}()
	}
	start := time.Now()
	for time.Since(start) < window {
		for i := 0; i < 64; i++ { // keep a shallow backlog, as a busy worker's deque is
			if q.Len() < 256 {
				q.Push(x)
			}
		}
		q.Pop()
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	return float64(steals.Load()) / elapsed.Seconds()
}

func (p *prober) core() error {
	sh := twoByK(p.e.p)
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = sh.places, sh.workers
	rt, err := core.New(core.Config{Cluster: cl, Policy: sched.DistWS, Seed: p.e.seed})
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	var runErr error
	run := func(body func(*core.Ctx)) {
		if err := rt.Run(body); err != nil && runErr == nil {
			runErr = err
		}
	}
	empty := func(*core.Ctx) {}
	p.r.set("core.empty_finish_ns", p.nsPerOp("core", "Run+Finish empty", 2000, func() {
		run(func(c *core.Ctx) { c.Finish(empty) })
	}), "ns")

	const fan = 4096
	p.r.set("core.spawn_join_ns_per_task", p.nsPerOp("core", "Async fan-out", 20, func() {
		run(func(c *core.Ctx) {
			c.Finish(func(c *core.Ctx) {
				for i := 0; i < fan; i++ {
					c.Async(c.Place(), empty)
				}
			})
		})
	})/fan, "ns")
	p.r.set("core.fanout_any_ns_per_task", p.nsPerOp("core", "AsyncAny fan-out", 20, func() {
		run(func(c *core.Ctx) {
			c.Finish(func(c *core.Ctx) {
				for i := 0; i < fan; i++ {
					c.AsyncAny(i%c.Places(), empty)
				}
			})
		})
	})/fan, "ns")
	return runErr
}

func (p *prober) dag() error {
	places := twoByK(p.e.p).places
	g, err := linalg.NewCholesky(256, 32, p.e.seed).Graph(places)
	if err != nil {
		return err
	}
	tasks := float64(g.NumTasks())
	var sc *dag.Schedule
	p.r.set("dag.new_schedule_us", p.nsPerOp("dag", "NewSchedule", 200, func() { sc = dag.NewSchedule(g) })/1e3, "us")

	var ready, next []int
	p.r.set("dag.tracker_ns_per_task", p.nsPerOp("dag", "Tracker", 200, func() {
		t := dag.NewTracker(sc)
		ready = t.Ready(ready[:0])
		for len(ready) > 0 {
			next = next[:0]
			for _, id := range ready {
				next = t.Complete(id, next)
			}
			ready, next = next, ready
		}
	})/tasks, "ns")

	dir := dag.NewDirectory(places)
	dir.SeedFrom(g)
	backlog := make([]int64, places)
	transfer := func(bytes int) int64 { return int64(bytes) }
	sink := 0
	p.r.set("dag.bestplace_ns", p.nsPerOp("dag", "BestPlace", 200, func() {
		for t := range g.Tasks {
			sink += dag.BestPlace(g, dir, t, backlog, transfer)
		}
	})/tasks, "ns")
	runtime.KeepAlive(sink)
	return nil
}

// codecs covers the pure encode/decode and bookkeeping paths a job
// crosses: the comm frame, the task envelope, the service job frame,
// admission and fair share.
func (p *prober) codecs() {
	payload := make([]byte, svcJobBytes)
	msg := comm.Message{Kind: comm.KindSpawn, From: 1, To: 2, Seq: 7, Payload: payload}
	var buf []byte
	p.r.set("comm.wire_ns_per_frame", p.nsPerOp("comm", "AppendFrame+DecodeFrame", 200_000, func() {
		buf = comm.AppendFrame(buf[:0], msg)
		if _, _, err := comm.DecodeFrame(buf); err != nil {
			panic(err) // a frame this package just encoded
		}
	}), "ns")

	env := &task.Envelope{Name: svcTask, Arg: payload, Home: 1, Class: task.Flexible, Tenant: 1}
	p.r.set("task.envelope_bytes", float64(env.EncodedLen()), "B")
	p.r.set("task.envelope_ns", p.nsPerOp("task", "Encode+DecodeEnvelope", 100_000, func() {
		b, err := env.Encode()
		if err == nil {
			_, err = task.DecodeEnvelope(b)
		}
		if err != nil {
			panic(err)
		}
	}), "ns")

	job := service.Job{Tenant: 1, ID: 9, Name: svcTask, Arg: payload}
	p.r.set("service.job_codec_ns", p.nsPerOp("service", "AppendJob+DecodeJob", 200_000, func() {
		buf = service.AppendJob(buf[:0], job)
		if _, err := service.DecodeJob(buf); err != nil {
			panic(err)
		}
	}), "ns")

	tenants := map[uint32]service.TenantConfig{1: {Weight: 1}, 2: {Weight: 3}}
	adm := service.NewAdmission(tenants)
	now := int64(0)
	p.r.set("service.admit_ns", p.nsPerOp("service", "Admit+Complete", 200_000, func() {
		now += 1000
		if err := adm.Admit(1, now); err != nil {
			panic(err) // unlimited tenants never refuse
		}
		adm.Complete(1)
	}), "ns")

	fs := service.NewFairShare(1, adm.Weights())
	tenant := uint32(1)
	p.r.set("service.fairshare_ns", p.nsPerOp("service", "FairShare Push+Pop", 200_000, func() {
		tenant = 3 - tenant
		fs.Push(tenant, service.Item{Job: job})
		fs.Pop()
	}), "ns")
}

// comm measures the three transports with an echo peer: in-process
// channels, the TCP mesh (one hop) and the hub (spoke to spoke, two hops),
// then floods the mesh one way with small and with bulk frames.
func (p *prober) comm() error {
	inproc := comm.NewMesh(2, 64, nil)
	rtt, err := p.pingPong("inproc", inproc.Endpoint(0), inproc.Endpoint(1), 20_000)
	if err != nil {
		return err
	}
	p.r.set("comm.inproc_rtt_ns_p50", rtt, "ns")

	mesh, closeMesh, err := loopbackMesh(2, nil)
	if err != nil {
		return err
	}
	defer closeMesh()
	if rtt, err = p.pingPong("tcp-mesh", mesh[0], mesh[1], 4000); err != nil {
		return err
	}
	p.r.set("comm.mesh_rtt_us_p50", rtt/1e3, "us")

	hub, err := comm.ListenHub("127.0.0.1:0", 3, nil)
	if err != nil {
		return err
	}
	defer hub.Close()
	var spokes [2]*comm.Spoke
	for i := range spokes {
		if spokes[i], err = comm.DialSpoke(hub.Addr(), i+1, nil); err != nil {
			return err
		}
		defer spokes[i].Close()
	}
	if err := hub.AwaitTimeout(10 * time.Second); err != nil {
		return err
	}
	if rtt, err = p.pingPong("tcp-hub", spokes[0], spokes[1], 4000); err != nil {
		return err
	}
	p.r.set("comm.hub_rtt_us_p50", rtt/1e3, "us")

	// Floods run on a mesh of their own so CoalescingStats counts them only.
	flood, closeFlood, err := loopbackMesh(2, nil)
	if err != nil {
		return err
	}
	defer closeFlood()
	rate, err := p.flood("small frames", flood[0], flood[1], 100_000, svcJobBytes)
	if err != nil {
		return err
	}
	writes, frames := flood[0].CoalescingStats()
	p.r.set("comm.mesh_frames_per_s", rate, "1/s")
	p.r.set("comm.mesh_frames_per_write", float64(frames)/float64(writes), "ratio")
	const bulk = 16 << 10
	if rate, err = p.flood("bulk frames", flood[0], flood[1], 4000, bulk); err != nil {
		return err
	}
	p.r.set("comm.mesh_bulk_mb_per_s", rate*bulk/1e6, "MB/s")
	return nil
}

// loopbackMesh brings up n TCPMesh nodes on loopback ports; every node
// needs every address before it listens, so the ports are bound first.
func loopbackMesh(n int, counters *metrics.Counters) ([]*comm.TCPMesh, func(), error) {
	var nodes []*comm.TCPMesh
	lns := make([]net.Listener, n)
	closeAll := func() {
		for _, m := range nodes {
			m.Close() // closes its listener too
		}
		for _, ln := range lns[len(nodes):] {
			if ln != nil {
				ln.Close()
			}
		}
	}
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for i := range lns {
		m, err := comm.ListenMeshTCP(addrs, i, comm.MeshOptions{Listener: lns[i], Counters: counters})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		nodes = append(nodes, m)
	}
	if err := nodes[0].AwaitTimeout(10 * time.Second); err != nil {
		closeAll()
		return nil, nil, err
	}
	return nodes, closeAll, nil
}

// pingPong bounces a 64-byte frame off b and returns the median round trip
// in ns as a sees it.
func (p *prober) pingPong(name string, a, b comm.Endpoint, n int) (float64, error) {
	if p.e.quick {
		n = max(10, n/20)
	}
	s := p.tr.begin("comm", name+" ping-pong", -1, 0)
	defer p.tr.end(s)
	failed := make(chan error, 1) // receives only if the echo side breaks
	go func() {
		for i := 0; i < n; i++ {
			m, ok := <-b.Inbox()
			if !ok {
				failed <- fmt.Errorf("%s: echo inbox closed", name)
				return
			}
			if err := b.Send(comm.Message{Kind: comm.KindData, From: b.Place(), To: a.Place(), Seq: m.Seq, Payload: m.Payload}); err != nil {
				failed <- err
				return
			}
		}
	}()
	payload := make([]byte, svcJobBytes)
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := a.Send(comm.Message{Kind: comm.KindData, From: a.Place(), To: b.Place(), Seq: uint64(i), Payload: payload}); err != nil {
			return 0, err
		}
		select {
		case <-a.Inbox():
		case err := <-failed:
			return 0, err
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("%s: no echo within 10s", name)
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds()))
	}
	return median(rtts), nil
}

// flood sends n frames of size bytes from a to b and returns the frames
// per second b received them at.
func (p *prober) flood(name string, a, b comm.Endpoint, n, size int) (float64, error) {
	if p.e.quick {
		n = max(10, n/20)
	}
	s := p.tr.begin("comm", "tcp-mesh "+name, -1, 0)
	defer p.tr.end(s)
	got := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			select {
			case _, ok := <-b.Inbox():
				if !ok {
					got <- fmt.Errorf("%s: inbox closed after %d of %d frames", name, i, n)
					return
				}
			case <-time.After(10 * time.Second):
				got <- fmt.Errorf("%s: stalled after %d of %d frames", name, i, n)
				return
			}
		}
		got <- nil
	}()
	payload := make([]byte, size)
	start := time.Now()
	for i := 0; i < n; i++ {
		// KindData is reliable traffic: the link queues it without bound
		// rather than shedding it, so n is what bounds the queue.
		if err := a.Send(comm.Message{Kind: comm.KindData, From: a.Place(), To: b.Place(), Seq: uint64(i), Payload: payload}); err != nil {
			return 0, err
		}
	}
	if err := <-got; err != nil {
		return 0, err
	}
	return float64(n) / time.Since(start).Seconds(), nil
}
