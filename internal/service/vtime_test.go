// The control plane under adversarial schedules: a real Server and real
// node.Executors on a vtime.Net, driven by the cluster Simulate uses, with
// a seeded fault plan deciding what every frame suffers. Each scenario runs
// over a sweep of seeds in microseconds apiece, and every run is held to
// the same invariants at quiescence (vrig.run). The wall-clock tests these
// replace each saw one schedule, under a deadline of seconds.
package service

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/task"
	"distws/internal/vtime"
)

const (
	// vSeeds is the width of a sweep. The two scenarios that wait for the
	// detector to give up on a place run several times longer in virtual
	// time and get half of it, which keeps the file under 3 s with -race.
	vSeeds      = 200
	vLink       = 50 * time.Microsecond
	vRetryAfter = 100 * time.Millisecond
	vHeartbeat  = 20 * time.Millisecond
	vDeadline   = 20 * time.Second // virtual: a run not quiescent by then has lost a job
	// vFrames is ~100 times what the server sends in the busiest run. Work
	// bounced between the server and an executor that keeps returning it
	// multiplies with every duplicated frame; that fails here, in
	// milliseconds, not at the deadline with the frame log filling memory.
	vFrames = 10_000
	vTask   = "v.work"
)

// chaos is the sweeps' fault plan: every frame may be delayed past its
// successors or delivered twice, frames between the server and the lossy
// executors may vanish, and cut is partitioned from everyone for a window
// short enough that the detector only ever suspects it. Client links lose
// nothing, so every job is answered and the run can end.
func chaos(seed int64, cut int, lossy ...int) *fault.Plan {
	p := &fault.Plan{
		Seed: seed, SpikeProb: 0.2, SpikeNS: (3 * time.Millisecond).Nanoseconds(), DupProb: 0.05,
		Partitions: []fault.Partition{{GroupA: []int{cut},
			AtNS: (30 * time.Millisecond).Nanoseconds(), HealNS: (70 * time.Millisecond).Nanoseconds()}},
	}
	for _, e := range lossy {
		for _, l := range [][2]int{{0, e}, {e, 0}} {
			p.Links = append(p.Links, fault.Link{From: l[0], To: l[1],
				DropProb: 0.15, SpikeProb: p.SpikeProb, SpikeNS: p.SpikeNS})
		}
	}
	return p
}

// frame is one frame the server sent, as the tap saw it.
type frame struct {
	at   int64
	kind comm.Kind
	to   int
	seq  uint64
	fate string // "" sent; "shed" refused with backpressure; "lost" swallowed by the tap
}

// tap is the server's comm.Endpoint: the net's seat 0 with every send on
// record, and the two things a transport can do to a KindSpawn that a
// fault plan cannot — refuse it with typed backpressure, or swallow one
// chosen frame.
type tap struct {
	comm.Endpoint
	net        *vtime.Net
	shed, lose int   // how many of the first KindSpawns to refuse / swallow
	spawns     int64 // KindSpawns the server believes it sent
	log        []frame
}

func (t *tap) Send(m comm.Message) error {
	f := frame{at: t.net.Now(), kind: m.Kind, to: m.To, seq: m.Seq}
	var err error
	switch {
	case m.Kind == comm.KindSpawn && t.shed > 0:
		t.shed--
		f.fate, err = "shed", &comm.BackpressureError{Place: m.To}
	case m.Kind == comm.KindSpawn && t.lose > 0:
		t.lose--
		f.fate = "lost"
	default:
		err = t.Endpoint.Send(m)
	}
	if m.Kind == comm.KindSpawn && err == nil {
		t.spawns++
	}
	t.log = append(t.log, f)
	return err
}

// count returns how many frames of kind the server sent to seat to with
// sequence number seq (any, if seq is 0).
func (t *tap) count(kind comm.Kind, to int, seq uint64) (n int) {
	for _, f := range t.log {
		if f.kind == kind && f.to == to && (seq == 0 || f.seq == seq) {
			n++
		}
	}
	return n
}

// vrig is one scenario run: the cluster, its tap, and what the clients and
// executors saw.
type vrig struct {
	t       *testing.T
	name    string
	net     *vtime.Net
	c       *cluster
	srv     *Server
	tap     *tap
	reg     *task.Registry
	ctrs    metrics.Counters
	client  int                 // the client seat
	jobs    int                 // submissions scripted so far
	submits map[uint64]int      // KindSubmit frames delivered to the server, by job id
	replied map[uint64]int      // replies that reached the client, by job id
	answer  map[uint64]int64    // when the first of them did
	code    map[uint64]NackCode // what the last of them said
	ran     map[int]int         // jobs run, by executor place
	drained []int               // executors the scenario drained
	nacked  map[int]int         // len(tap.log) when the first KindSpawnNack of a place reached the server
	endNS   int64
}

// newVrig builds a server at seat 0, executors at seats 1..execs and a
// client seat after them. Executors listed in absent are not started;
// the scenario joins them. hb of 0 runs without heartbeats or detector.
func newVrig(t *testing.T, name string, plan *fault.Plan, execs, window int, hb time.Duration, absent ...int) *vrig {
	r := &vrig{t: t, name: name, reg: task.NewRegistry(), client: execs + 1,
		submits: map[uint64]int{}, replied: map[uint64]int{}, answer: map[uint64]int64{}, code: map[uint64]NackCode{},
		ran: map[int]int{}, nacked: map[int]int{}}
	r.reg.Register(vTask, func([]byte) error { return nil })
	r.net = vtime.NewNet(execs+2, vLink.Nanoseconds(), fault.NewInjector(plan))
	r.tap = &tap{Endpoint: r.net.Seat(0), net: r.net}
	r.srv = &Server{
		Node: r.tap, Places: execs + 1, Tenants: map[uint32]TenantConfig{1: {}}, Registry: r.reg,
		Counters: &r.ctrs, Stats: NewStats(), Window: window, RetryAfter: vRetryAfter, Heartbeat: hb,
		Absent: absent, Clock: r.net.Now,
	}
	c, err := newCluster(r.net, r.srv)
	if err != nil {
		t.Fatal(err)
	}
	r.c = c
	r.net.Deliver = func(to int, m comm.Message) {
		if to == 0 && m.Kind == comm.KindSubmit {
			r.submits[m.Seq]++
		}
		if _, seen := r.nacked[m.From]; to == 0 && m.Kind == comm.KindSpawnNack && !seen {
			r.nacked[m.From] = len(r.tap.log)
		}
		c.deliver(to, m)
	}
	// The server drains once every job has been answered; it then finishes
	// when nothing is live, which is the quiescence the invariants wait for.
	c.client = func(_ int, m comm.Message) {
		rep, err := DecodeReply(m.Payload)
		if err != nil {
			t.Fatalf("%s: reply frame: %v", name, err)
		}
		if r.replied[rep.ID]++; r.replied[rep.ID] == 1 {
			r.answer[rep.ID] = r.net.Now()
		}
		r.code[rep.ID] = rep.Code
		if len(r.replied) == r.jobs {
			r.srv.Drain()
			c.step(node.Event{})
		}
	}
	for p := 1; p <= execs; p++ {
		if !slices.Contains(absent, p) {
			r.join(p, hb, false)
		}
	}
	return r
}

// join starts an executor at seat p whose every job works for the duration
// in its argument.
func (r *vrig) join(p int, hb time.Duration, announce bool) *node.Executor {
	seat := r.net.Seat(p)
	ex := &node.Executor{
		Node: seat, Place: p, Registry: r.reg, Heartbeat: hb, Announce: announce,
		Run: func(_ string, arg []byte) ([]byte, error) {
			r.ran[p]++
			seat.Work(int64(binary.BigEndian.Uint64(arg)))
			return arg, nil
		},
	}
	if err := r.c.add(ex); err != nil {
		r.t.Fatalf("%s: executor %d: %v", r.name, p, err)
	}
	return ex
}

// submit scripts one job of the given length to be submitted at virtual
// time at. Job ids count from 1 in submission-script order.
func (r *vrig) submit(at, work time.Duration) { r.submitBy(at, work, 0) }

// submitBy is submit for a job that must be dispatched before the server's
// clock reads deadline (0: whenever).
func (r *vrig) submitBy(at, work, deadline time.Duration) {
	r.jobs++
	id := uint64(r.jobs)
	r.net.At(at.Nanoseconds(), func() {
		job := AppendJob(nil, Job{Tenant: 1, ID: id, DeadlineNS: deadline.Nanoseconds(), Name: vTask, Arg: u64(uint64(work.Nanoseconds()))})
		r.net.Seat(r.client).Send(comm.Message{Kind: comm.KindSubmit, To: 0, Seq: id, Payload: job})
	})
}

// drain scripts executor ex to start a graceful drain at virtual time at.
func (r *vrig) drain(at time.Duration, ex *node.Executor) {
	r.drained = append(r.drained, ex.Place)
	r.net.At(at.Nanoseconds(), ex.Drain)
}

// run steps the net until the server has finished, checking the retry
// window after every event, then checks the invariants every scenario must
// keep whatever the schedule did:
//
//   - every admitted job completed or was nacked after admission, and the
//     server answered every submission it received exactly once, so no id
//     reached Policy.Done twice and no twin's reply reached a client;
//   - every executor that drained was released — the dispatcher moved it
//     from Draining to Left and sent it KindShutdown — and has stopped;
//   - a retry sweep that found work fired exactly RetryAfter after the last
//     dispatch progress, and while anything was outstanding dispatch never
//     sat longer than that without progress or a sweep.
func (r *vrig) run() {
	t, name := r.t, r.name
	retryNS := vRetryAfter.Nanoseconds()
	var progressAt, spawns, completed, offloaded, retries int64
	for !r.c.done && r.net.Step() {
		now := r.net.Now()
		if r.c.err != nil {
			t.Fatalf("%s: at %v: %v", name, time.Duration(now), r.c.err)
		}
		if now > vDeadline.Nanoseconds() {
			t.Fatalf("%s: not quiescent after %v: %d of %d jobs answered, %d live\n%s",
				name, vDeadline, len(r.replied), r.jobs, r.srv.d.Live(), r.Format())
		}
		if len(r.tap.log) > vFrames {
			t.Fatalf("%s: the server has sent %d frames by %v, %d of them KindSpawn for %d jobs",
				name, len(r.tap.log), time.Duration(now), r.tap.spawns, r.jobs)
		}
		if got := r.ctrs.Retries.Load(); got != retries {
			if now != progressAt+retryNS {
				t.Fatalf("%s: retry sweep at %v, last dispatch progress at %v: want exactly RetryAfter (%v) apart",
					name, time.Duration(now), time.Duration(progressAt), vRetryAfter)
			}
			retries, progressAt = got, now
		}
		if s, c, o := r.tap.spawns, r.ctrs.JobsCompleted.Load(), r.ctrs.TasksOffloaded.Load(); s != spawns || c != completed || o != offloaded {
			spawns, completed, offloaded, progressAt = s, c, o, now
		}
		// Live counts queued and outstanding items; the queue may also hold
		// finished twins, so the difference never overstates what is
		// outstanding at an executor.
		if r.srv.d.Live() > r.srv.fs.Len() && now-progressAt > retryNS {
			t.Fatalf("%s: at %v an item has been outstanding with no dispatch progress and no sweep since %v (RetryAfter %v)",
				name, time.Duration(now), time.Duration(progressAt), vRetryAfter)
		}
	}
	r.endNS = r.net.Now()
	if !r.c.done {
		t.Fatalf("%s: the net ran dry at %v with the server unfinished: %d of %d jobs answered\n%s",
			name, time.Duration(r.endNS), len(r.replied), r.jobs, r.Format())
	}

	var expired int64
	for _, id := range r.srv.Stats.ids() {
		expired += r.srv.Stats.Tenant(id).Expired.Load()
	}
	if a, c := r.ctrs.JobsAdmitted.Load(), r.ctrs.JobsCompleted.Load(); a != c+expired {
		t.Errorf("%s: JobsAdmitted %d != JobsCompleted %d + nacked after admission %d", name, a, c, expired)
	}
	for id := uint64(1); id <= uint64(r.jobs); id++ {
		answers := r.tap.count(comm.KindJobDone, r.client, id) + r.tap.count(comm.KindJobNack, r.client, id)
		if answers != r.submits[id] || answers == 0 {
			t.Errorf("%s: job %d reached the server %d time(s) and was answered %d time(s)", name, id, r.submits[id], answers)
		}
	}
	if got := r.srv.adm.InFlight(1); got != 0 {
		t.Errorf("%s: %d admission slot(s) still held at quiescence", name, got)
	}
	for _, p := range r.drained {
		if r.tap.count(comm.KindShutdown, p, 0) == 0 {
			t.Errorf("%s: drained executor %d was never sent KindShutdown", name, p)
		}
		if r.c.execs[p] != nil {
			t.Errorf("%s: drained executor %d is still serving", name, p)
		}
	}
	if got, want := r.ctrs.MembershipDrains.Load(), int64(len(r.drained)); got != want {
		t.Errorf("%s: MembershipDrains = %d, want %d", name, got, want)
	}
}

// Format renders everything a run did; equal runs render equal strings.
func (r *vrig) Format() string {
	b := fmt.Appendf(nil, "%s: end=%v ran=%v\n%s\n", r.name, time.Duration(r.endNS), r.ran, r.ctrs.Snapshot())
	for _, f := range r.tap.log {
		b = strconv.AppendInt(b, f.at, 10)
		b = append(append(b, ' '), f.kind.String()...)
		b = strconv.AppendInt(append(b, " to="...), int64(f.to), 10)
		b = strconv.AppendUint(append(b, " seq="...), f.seq, 10)
		b = append(append(append(b, ' '), f.fate...), '\n')
	}
	return string(b)
}

// sweep runs scenario over seeds seeds, twice each: the rerun must render
// the identical Format.
func sweep(t *testing.T, seeds int64, scenario func(t *testing.T, name string, seed int64) *vrig) {
	t.Helper()
	for seed := int64(1); seed <= seeds; seed++ {
		name := fmt.Sprintf("seed %d", seed)
		first := scenario(t, name, seed).Format()
		if again := scenario(t, name, seed).Format(); again != first {
			t.Fatalf("%s: rerun differs:\n%s\n---\n%s", name, first, again)
		}
	}
}

// ms draws a duration in [lo, hi) milliseconds, at microsecond grain.
func ms(rng *rand.Rand, lo, hi int) time.Duration {
	return time.Duration(lo*1000+rng.Intn((hi-lo)*1000)) * time.Microsecond
}

// TestShedJobIsResent is PR 20's defect (A): the only job in the system is
// shed with typed backpressure, so nothing is outstanding when the retry
// window runs out. Its expiry must pump the queue anyway. No heartbeats:
// nothing else may happen that would pump it by accident.
func TestShedJobIsResent(t *testing.T) {
	sweep(t, vSeeds, func(t *testing.T, name string, seed int64) *vrig {
		r := newVrig(t, name, chaos(seed, 1, 1), 1, 0, 0)
		r.tap.shed = 1
		r.submit(ms(rand.New(rand.NewSource(seed)), 0, 90), time.Millisecond)
		r.run()
		if got := r.ctrs.Backpressure.Load(); got != 1 {
			t.Fatalf("%s: Backpressure = %d, want 1 (the shed is counted)", name, got)
		}
		if r.ran[1] == 0 {
			t.Fatalf("%s: the shed job never ran", name)
		}
		return r
	})
}

// TestLongJobCompletesOnce is defect (B): a job that runs for longer than
// RetryAfter is re-sent while its first copy is still running, each time
// to the next of three executors, so that when a copy replies the item is
// registered somewhere else. The first reply must finish it all the same,
// and the twins' later replies, which arrive while the second job keeps
// the server up, must reach nobody.
func TestLongJobCompletesOnce(t *testing.T) {
	sweep(t, vSeeds, func(t *testing.T, name string, seed int64) *vrig {
		r := newVrig(t, name, chaos(seed, 2, 2), 3, 0, 0)
		rng := rand.New(rand.NewSource(seed))
		r.submit(ms(rng, 0, 20), 250*time.Millisecond)
		r.submit(ms(rng, 1500, 1600), time.Millisecond)
		r.run()
		if r.ctrs.Retries.Load() == 0 {
			t.Fatalf("%s: the long job was never re-sent: it did not outlast the retry window, the test staged nothing", name)
		}
		// Its first copy went to executor 1, whose links lose nothing. Given
		// long enough, the second job's traffic shifts the retry window and
		// lets some twin's reply find the item where it is registered.
		if at := time.Duration(r.answer[1]); at > 300*time.Millisecond {
			t.Fatalf("%s: the long job was answered at %v: not by its first copy's reply, due 250ms after it was sent", name, at)
		}
		return r
	})
}

// TestQueuedJobExpires: one executor with a window of one is busy with a
// long job while a second, admitted well inside its deadline, waits behind
// it until the deadline has passed. The pop that would have dispatched it
// must end it instead: a NackDeadline to the client for every copy of the
// submission that arrived (the plan may deliver it twice), each counted
// Expired, its admission slot returned, and no KindSpawn for it, ever.
func TestQueuedJobExpires(t *testing.T) {
	sweep(t, vSeeds, func(t *testing.T, name string, seed int64) *vrig {
		r := newVrig(t, name, chaos(seed, 1, 1), 1, 1, 0)
		rng := rand.New(rand.NewSource(seed))
		r.submit(ms(rng, 0, 5), 50*time.Millisecond)
		// Submitted after the long job has arrived however it was delayed,
		// and arriving, however delayed, with the deadline still ahead.
		r.submitBy(ms(rng, 10, 15), time.Millisecond, 30*time.Millisecond)
		r.run()
		waited := r.submits[2]
		if got := r.tap.count(comm.KindJobNack, r.client, 2); got != waited || r.code[2] != NackDeadline {
			t.Fatalf("%s: the waiting job arrived %d time(s) and was nacked %d time(s), last with %v: want NackDeadline each time\n%s",
				name, waited, got, r.code[2], r.Format())
		}
		if got := r.srv.Stats.Tenant(1).Expired.Load(); got != int64(waited) {
			t.Fatalf("%s: Expired = %d, want %d", name, got, waited)
		}
		// Re-sends reuse the dispatch id, so the ids that ever went out are
		// the items that did: the long job's copies and nothing else.
		sent := map[uint64]bool{}
		for _, f := range r.tap.log {
			if f.kind == comm.KindSpawn {
				sent[f.seq] = true
			}
		}
		if len(sent) != r.submits[1] {
			t.Fatalf("%s: KindSpawn went out for %d item(s), want only the long job's %d\n%s", name, len(sent), r.submits[1], r.Format())
		}
		return r
	})
}

// lostSpawnUnderHeartbeats is defect (C) for the Server policy: a
// KindSpawn is silently lost on its way to a live executor that beats five
// times per RetryAfter. Heartbeats and the detector's tick must not keep
// restarting the retry window, or the item is never re-sent.
func lostSpawnUnderHeartbeats(t *testing.T) {
	sweep(t, vSeeds, func(t *testing.T, name string, seed int64) *vrig {
		r := newVrig(t, name, chaos(seed, 1, 1), 1, 0, vHeartbeat)
		r.tap.lose = 1
		r.submit(ms(rand.New(rand.NewSource(seed)), 0, 90), time.Millisecond)
		r.run()
		// A lost message is not a lost place: unless the detector took the
		// executor down as well, only the sweep can have recovered the job.
		if r.ctrs.PlacesLost.Load() == 0 && r.ctrs.Retries.Load() == 0 {
			t.Fatalf("%s: Retries = 0: the lost spawn was never re-sent", name)
		}
		return r
	})
}

// TestJoinLate: executor 2 is absent at start and announces itself while
// jobs are queued behind executor 1's window. It must be admitted once and
// given work. Its links lose nothing: without heartbeats KindJoin is sent
// once.
func TestJoinLate(t *testing.T) {
	sweep(t, vSeeds, func(t *testing.T, name string, seed int64) *vrig {
		r := newVrig(t, name, chaos(seed, 1, 1), 2, 2, 0, 2)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			r.submit(ms(rng, 0, 5), 10*time.Millisecond)
		}
		r.net.At(ms(rng, 10, 30).Nanoseconds(), func() { r.join(2, 0, true) })
		r.run()
		if j := r.ctrs.MembershipJoins.Load(); j != 1 {
			t.Fatalf("%s: MembershipJoins = %d, want 1", name, j)
		}
		if r.ran[2] == 0 {
			t.Fatalf("%s: the late joiner ran nothing: %v", name, r.ran)
		}
		return r
	})
}

// TestDrainWithAFullWindow: executor 2 starts a drain while it runs one
// job with the rest of its window queued behind it. The queued jobs come
// back as nacks and finish elsewhere; the executor is released as soon as
// its window is empty. Its links lose nothing: KindDrain and KindShutdown
// are sent once, and without heartbeats nothing repeats what they said.
func TestDrainWithAFullWindow(t *testing.T) {
	sweep(t, vSeeds, func(t *testing.T, name string, seed int64) *vrig {
		r := newVrig(t, name, chaos(seed, 1, 1), 2, 4, 0)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 12; i++ {
			r.submit(ms(rng, 0, 2), 5*time.Millisecond)
		}
		r.drain(ms(rng, 6, 9), r.c.execs[2])
		r.run()
		if r.ctrs.TasksOffloaded.Load() == 0 {
			t.Fatalf("%s: the draining executor returned nothing: its window was not full, the test staged nothing", name)
		}
		if lost := r.ctrs.PlacesLost.Load(); lost != 0 {
			t.Fatalf("%s: PlacesLost = %d: a drain is not a failure", name, lost)
		}
		return r
	})
}

// TestDrainAnnouncementLost: executor 2 starts its drain inside the
// partition window, so the one KindDrain it sends is swallowed. Its beats
// say Draining all the same, and the first to get through after the heal
// must start the drain at the server: counted once, no more work sent
// there, the executor released when its window is empty. A nack that gets
// through first says the same: only a draining executor nacks, so from the
// first one the server handles it must send that place no further
// KindSpawn. Taking the item back and nothing more re-sent it to the same
// place, and every duplicate of the nack did so again.
func TestDrainAnnouncementLost(t *testing.T) {
	sweep(t, vSeeds, func(t *testing.T, name string, seed int64) *vrig {
		r := newVrig(t, name, chaos(seed, 2, 1), 2, 4, vHeartbeat)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 12; i++ {
			r.submit(ms(rng, 20, 90), 5*time.Millisecond)
		}
		r.drain(ms(rng, 31, 60), r.c.execs[2])
		r.run()
		if lost := r.ctrs.PlacesLost.Load(); lost != 0 {
			t.Fatalf("%s: PlacesLost = %d: a drain is not a failure", name, lost)
		}
		for p, from := range r.nacked {
			for _, f := range r.tap.log[from:] {
				if f.kind == comm.KindSpawn && f.to == p {
					t.Fatalf("%s: KindSpawn %d sent to executor %d at %v, after the server handled a KindSpawnNack from it (%d KindSpawn frames for %d jobs)\n%s",
						name, f.seq, p, time.Duration(f.at), r.tap.spawns, r.jobs, r.Format())
				}
			}
		}
		return r
	})
}

// TestDrainReleaseLost: executor 2, idle, announces its drain just before
// the partition closes, so the KindShutdown the server answers with departs
// into it and is swallowed. The server holds the place Left from then on
// and will not release it again; the executor must take the Left in the
// acks of the beats it keeps sending as that release. A second wave of
// jobs keeps the server up until it has.
func TestDrainReleaseLost(t *testing.T) {
	sweep(t, vSeeds, func(t *testing.T, name string, seed int64) *vrig {
		plan := chaos(seed, 2, 1)
		r := newVrig(t, name, plan, 2, 4, vHeartbeat)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			r.submit(ms(rng, 120, 140), 5*time.Millisecond)
		}
		// Half a link latency before the cut: KindDrain departs outside the
		// window and arrives, spiked or not, inside it.
		r.drain(time.Duration(plan.Partitions[0].AtNS)-vLink/2, r.c.execs[2])
		r.run()
		if got := r.tap.count(comm.KindShutdown, 2, 0); got != 1 {
			t.Fatalf("%s: %d KindShutdown frames to executor 2, want the one the partition swallowed", name, got)
		}
		return r
	})
}

// TestPartitionDownRejoin: executor 1 is cut off for long enough to be
// declared down with a full window, which is re-homed. When the partition
// heals it keeps beating at its old incarnation, learns from the acks that
// it is Down, and rejoins with a bumped one. Several acks say Down before
// the rejoin lands (and the plan duplicates and delays them); the
// executor's stale-ack guard must make that one rejoin, not one per ack.
func TestPartitionDownRejoin(t *testing.T) {
	sweep(t, vSeeds/2, func(t *testing.T, name string, seed int64) *vrig {
		plan := chaos(seed, 1, 2)
		plan.Partitions[0].HealNS = (280 * time.Millisecond).Nanoseconds()
		r := newVrig(t, name, plan, 2, 4, vHeartbeat)
		rng := rand.New(rand.NewSource(seed))
		// Enough work that executor 2 keeps dispatch progressing, and the
		// retry sweep quiet, until the detector gives up on executor 1.
		for i := 0; i < 12; i++ {
			r.submit(ms(rng, 20, 28), 30*time.Millisecond)
		}
		// A second wave after the heal keeps the server up through the rejoin.
		for i := 0; i < 4; i++ {
			r.submit(ms(rng, 380, 400), time.Millisecond)
		}
		r.run()
		if lost, re := r.ctrs.PlacesLost.Load(), r.ctrs.TasksReExecuted.Load(); lost != 1 || re == 0 {
			t.Fatalf("%s: PlacesLost = %d, TasksReExecuted = %d, want executor 1 down once with work outstanding", name, lost, re)
		}
		if re, j := r.ctrs.MembershipRejoins.Load(), r.ctrs.MembershipJoins.Load(); re != 1 || j != 0 {
			t.Fatalf("%s: MembershipRejoins = %d, MembershipJoins = %d, want one rejoin and nothing else", name, re, j)
		}
		return r
	})
}

// crashWithAFullWindow crashes executor 1 at virtual time at with its
// window full, and with enough work queued that executor 2 keeps dispatch
// progressing, and the retry sweep quiet, until the detector declares the
// crash. The window is then re-homed to executor 2.
func crashWithAFullWindow(t *testing.T, name string, plan *fault.Plan, at time.Duration) *vrig {
	plan.Crashes = []fault.Crash{{Place: 1, AtVirtualNS: at.Nanoseconds()}}
	r := newVrig(t, name, plan, 2, 4, vHeartbeat)
	rng := rand.New(rand.NewSource(plan.Seed))
	for i := 0; i < 12; i++ {
		r.submit(ms(rng, 0, 2), 20*time.Millisecond)
	}
	r.run()
	if lost, re := r.ctrs.PlacesLost.Load(), r.ctrs.TasksReExecuted.Load(); lost != 1 || re == 0 {
		t.Fatalf("%s: PlacesLost = %d, TasksReExecuted = %d, want executor 1 down once with work outstanding", name, lost, re)
	}
	return r
}

// vCrashAt is after executor 1's first heartbeat.
const vCrashAt = 32 * time.Millisecond

func TestCrashWithAFullWindow(t *testing.T) {
	sweep(t, vSeeds/2, func(t *testing.T, name string, seed int64) *vrig {
		return crashWithAFullWindow(t, name, chaos(seed, 2, 2), vCrashAt)
	})
}

// TestCrashBeforeFirstBeat: executor 1 dies at once, so all the server
// ever has of it is the seat it seeded alive when its clock read 0. The
// detector must count the silence from that instant and declare the place
// down; taking the 0 for "never heard" left it alive for good, its window
// recovered only by the retry sweep, one RetryAfter at a time.
func TestCrashBeforeFirstBeat(t *testing.T) {
	sweep(t, vSeeds/2, func(t *testing.T, name string, seed int64) *vrig {
		return crashWithAFullWindow(t, name, chaos(seed, 2, 2), time.Nanosecond)
	})
}

// TestCrashRehomesInIDOrder pins the order in which a lost executor's
// items go out again: ascending id, the same on every run. The registry is
// a map, and ranging over it made the KindSpawn sequence differ from run
// to run. The plan holds nothing but the crash, so every KindSpawn that
// repeats an id is a re-homed item.
func TestCrashRehomesInIDOrder(t *testing.T) {
	spawns := func() (all string, rehomed []uint64) {
		r := crashWithAFullWindow(t, "crash only", &fault.Plan{Seed: 1}, vCrashAt)
		seen := map[uint64]bool{}
		for _, f := range r.tap.log {
			if f.kind == comm.KindSpawn {
				all += fmt.Sprintf("%d→%d ", f.seq, f.to)
				if seen[f.seq] {
					rehomed = append(rehomed, f.seq)
				}
				seen[f.seq] = true
			}
		}
		return all, rehomed
	}
	first, rehomed := spawns()
	if len(rehomed) != 4 {
		t.Fatalf("%d item(s) re-homed, want executor 1's full window of 4: %s", len(rehomed), first)
	}
	for i := 1; i < len(rehomed); i++ {
		if rehomed[i] <= rehomed[i-1] {
			t.Fatalf("re-homed items went out as %v, want ascending id", rehomed)
		}
	}
	for run := 1; run < 50; run++ {
		if again, _ := spawns(); again != first {
			t.Fatalf("run %d sent a different KindSpawn sequence:\n%s\n%s", run, first, again)
		}
	}
}
