package comm

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"distws/internal/fault"
	"distws/internal/metrics"
)

// startTCPMesh boots an n-place mesh on pre-bound loopback listeners (so
// there is no port race) and registers cleanup. opt may be nil.
func startTCPMesh(t *testing.T, n int, opt func(place int) MeshOptions) []*TCPMesh {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*TCPMesh, n)
	for i := range nodes {
		opts := MeshOptions{}
		if opt != nil {
			opts = opt(i)
		}
		opts.Listener = lns[i]
		node, err := ListenMeshTCP(addrs, i, opts)
		if err != nil {
			t.Fatalf("ListenMeshTCP(%d): %v", i, err)
		}
		nodes[i] = node
		t.Cleanup(func() { node.Close() })
	}
	return nodes
}

func TestTCPMeshRoundTrip(t *testing.T) {
	var ctrs metrics.Counters
	nodes := startTCPMesh(t, 3, func(int) MeshOptions { return MeshOptions{Counters: &ctrs} })
	if err := nodes[0].AwaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("AwaitTimeout: %v", err)
	}

	// Every ordered pair is one hop — including spoke-to-spoke, which the
	// star topology would route through place 0 as two counted hops.
	hops := []struct{ from, to int }{{0, 1}, {1, 2}, {2, 0}}
	for _, h := range hops {
		if err := nodes[h.from].Send(Message{Kind: KindSpawn, To: h.to, Payload: []byte("hop")}); err != nil {
			t.Fatalf("send %d->%d: %v", h.from, h.to, err)
		}
		got := recvTimeout(t, nodes[h.to].Inbox())
		if got.From != h.from || got.To != h.to || string(got.Payload) != "hop" {
			t.Fatalf("%d->%d delivered %+v", h.from, h.to, got)
		}
	}
	s := ctrs.Snapshot()
	if s.Messages != 3 || s.BytesTransferred != 9 {
		t.Fatalf("counters = %d msgs %d bytes, want 3/9 (one hop per send)", s.Messages, s.BytesTransferred)
	}

	// Self-delivery bypasses the wire and the counters.
	if err := nodes[1].Send(Message{Kind: KindData, To: 1, Payload: []byte("self")}); err != nil {
		t.Fatalf("self send: %v", err)
	}
	if got := recvTimeout(t, nodes[1].Inbox()); string(got.Payload) != "self" {
		t.Fatalf("self delivery %+v", got)
	}
	if got := ctrs.Snapshot().Messages; got != 3 {
		t.Fatalf("self send counted as cross-node message: %d", got)
	}
}

func TestTCPMeshAwaitAndValidation(t *testing.T) {
	nodes := startTCPMesh(t, 2, nil)
	// Non-zero places await their eager link to the coordinator.
	if err := nodes[1].AwaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("spoke AwaitTimeout: %v", err)
	}
	if err := nodes[0].AwaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("coordinator AwaitTimeout: %v", err)
	}
	if err := nodes[0].Send(Message{To: 9}); err == nil {
		t.Fatalf("send to invalid place should error")
	}
	if _, err := ListenMeshTCP([]string{"127.0.0.1:0"}, 0, MeshOptions{}); err == nil {
		t.Fatalf("1-place mesh should be rejected")
	}
	if _, err := ListenMeshTCP([]string{"a", "b"}, 5, MeshOptions{}); err == nil {
		t.Fatalf("out-of-range place should be rejected")
	}
}

func TestTCPMeshPeerCrash(t *testing.T) {
	nodes := startTCPMesh(t, 3, nil)
	if err := nodes[0].AwaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("AwaitTimeout: %v", err)
	}
	// Establish 0's outbound link to 2, then fail-stop place 2.
	if err := nodes[0].Send(Message{Kind: KindData, To: 2}); err != nil {
		t.Fatalf("priming send: %v", err)
	}
	recvTimeout(t, nodes[2].Inbox())
	nodes[2].Close()

	// Place 2's eager connection into place 0 dies, so place 0 notices
	// without sending: a synthetic KindPlaceDown shows up in its inbox.
	down := recvTimeout(t, nodes[0].Inbox())
	if down.Kind != KindPlaceDown || down.From != 2 {
		t.Fatalf("expected synthetic place-down for 2, got %+v", down)
	}
	if !nodes[0].Down(2) {
		t.Fatalf("Down(2) should report the evicted peer")
	}
	err := nodes[0].Send(Message{Kind: KindData, To: 2})
	if !errors.Is(err, ErrPlaceDown) {
		t.Fatalf("send to crashed peer = %v, want ErrPlaceDown", err)
	}
	var pde *PlaceDownError
	if !errors.As(err, &pde) || pde.Place != 2 {
		t.Fatalf("error should carry the dead place id, got %v", err)
	}
	// The survivors keep talking.
	if err := nodes[1].Send(Message{Kind: KindData, To: 0, Payload: []byte("alive")}); err != nil {
		t.Fatalf("survivor send: %v", err)
	}
	if got := recvTimeout(t, nodes[0].Inbox()); string(got.Payload) != "alive" {
		t.Fatalf("survivor delivery %+v", got)
	}
}

func TestTCPMeshDeadAddressBackpressureAndEviction(t *testing.T) {
	// Three addresses, but place 2 never starts: its port is reserved and
	// released so dials fail fast, exercising retry-with-backoff, the
	// lossy-shedding queue bound, and eventual eviction.
	var ctrs metrics.Counters
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lns[2].Close() // place 2 is a ghost
	opts := MeshOptions{Counters: &ctrs, dialAttempts: 4, dialBackoff: 50 * time.Millisecond, linkQueue: 1}
	opts.Listener = lns[0]
	n0, err := ListenMeshTCP(addrs, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	opts1 := opts
	opts1.Listener = lns[1]
	n1, err := ListenMeshTCP(addrs, 1, opts1)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	// First send queues and starts the flusher, which is now stuck in dial
	// backoff against the dead address. The queue is over its depth, so a
	// lossy heartbeat is shed with a typed error while reliable traffic
	// keeps queueing.
	if err := n0.Send(Message{Kind: KindData, To: 2}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	serr := n0.Send(Message{Kind: KindHeartbeat, To: 2})
	if !errors.Is(serr, ErrBackpressure) {
		t.Fatalf("heartbeat into stalled link = %v, want ErrBackpressure", serr)
	}
	var bpe *BackpressureError
	if !errors.As(serr, &bpe) || bpe.Place != 2 {
		t.Fatalf("backpressure error should carry place 2, got %v", serr)
	}
	if err := n0.Send(Message{Kind: KindData, To: 2}); err != nil {
		t.Fatalf("reliable send must queue, got %v", err)
	}
	if got := ctrs.Snapshot().Backpressure; got < 2 {
		t.Fatalf("Backpressure = %d, want >= 2", got)
	}

	// The dial exhausts its retries and the ghost is evicted.
	down := recvTimeout(t, n0.Inbox())
	if down.Kind != KindPlaceDown || down.From != 2 {
		t.Fatalf("expected place-down for 2, got %+v", down)
	}
	if err := n0.Send(Message{Kind: KindData, To: 2}); !errors.Is(err, ErrPlaceDown) {
		t.Fatalf("post-eviction send = %v, want ErrPlaceDown", err)
	}
	if got := ctrs.Snapshot().Retries; got != 3 {
		t.Fatalf("Retries = %d, want 3 (DialAttempts-1 backoff retries)", got)
	}
}

func TestTCPMeshInjectedDialFault(t *testing.T) {
	// A fault plan with certain loss on the 0->1 link makes every dial
	// attempt fail deterministically: the backoff path runs, the drops are
	// counted, and the peer ends up evicted — all without a real network
	// fault.
	var ctrs metrics.Counters
	nodes := startTCPMesh(t, 2, func(int) MeshOptions {
		return MeshOptions{Counters: &ctrs, dialAttempts: 3, dialBackoff: time.Millisecond}
	})
	inj := fault.NewInjector(&fault.Plan{
		Seed:  7,
		Links: []fault.Link{{From: 0, To: 1, DropProb: 1}},
	})
	nodes[0].InjectFaults(inj)

	if err := nodes[0].Send(Message{Kind: KindData, To: 1}); err != nil {
		t.Fatalf("send should enqueue before the dial fails: %v", err)
	}
	down := recvTimeout(t, nodes[0].Inbox())
	if down.Kind != KindPlaceDown || down.From != 1 {
		t.Fatalf("expected place-down for 1, got %+v", down)
	}
	s := ctrs.Snapshot()
	if s.DroppedMessages != 3 {
		t.Fatalf("DroppedMessages = %d, want 3 (one per injected dial fault)", s.DroppedMessages)
	}
	if s.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", s.Retries)
	}
	if err := nodes[0].Send(Message{Kind: KindData, To: 1}); !errors.Is(err, ErrPlaceDown) {
		t.Fatalf("send after injected eviction = %v, want ErrPlaceDown", err)
	}
}

func TestTCPMeshWriteCoalescing(t *testing.T) {
	nodes := startTCPMesh(t, 2, nil)
	// 0->1 is a lazy link: the first send triggers the dial, and everything
	// enqueued while it is in flight must leave in batched writes.
	const burst = 200
	for i := 0; i < burst; i++ {
		if err := nodes[0].Send(Message{Kind: KindData, To: 1, Seq: uint64(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < burst; i++ {
		got := recvTimeout(t, nodes[1].Inbox())
		if got.Seq != uint64(i) {
			t.Fatalf("message %d arrived with seq %d (order lost)", i, got.Seq)
		}
	}
	// The flusher bumps its counters after conn.Write returns, so the
	// receiver above can have drained the last batch before the sender has
	// counted it: wait for the count to settle instead of reading it once.
	writes, frames := nodes[0].CoalescingStats()
	for deadline := time.Now().Add(5 * time.Second); frames < burst && time.Now().Before(deadline); {
		runtime.Gosched()
		writes, frames = nodes[0].CoalescingStats()
	}
	if frames != burst {
		t.Fatalf("frames = %d, want %d", frames, burst)
	}
	if writes >= frames {
		t.Fatalf("writes = %d for %d frames: no coalescing happened", writes, frames)
	}
	t.Logf("coalescing: %d frames in %d writes", frames, writes)
}

func TestTCPMeshClose(t *testing.T) {
	nodes := startTCPMesh(t, 2, nil)
	if err := nodes[0].AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := nodes[0].Send(Message{To: 1}); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	if _, open := <-nodes[0].Inbox(); open {
		t.Fatalf("inbox should be closed")
	}
}

// TestTCPMeshRejoinWithBumpedIncarnation exercises the un-eviction
// path: a crashed place is marked down, a restart at the *same*
// incarnation stays rejected (fail-stop semantics for the dead
// process), and a restart with a bumped incarnation is readmitted —
// the healed link is re-established, not left evicted.
func TestTCPMeshRejoinWithBumpedIncarnation(t *testing.T) {
	nodes := startTCPMesh(t, 3, nil)
	if err := nodes[0].AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 3)
	for i, n := range nodes {
		addrs[i] = n.Addr()
	}

	// Establish 0's outbound link to 2, then fail-stop place 2.
	if err := nodes[0].Send(Message{Kind: KindData, To: 2}); err != nil {
		t.Fatal(err)
	}
	recvTimeout(t, nodes[2].Inbox())
	nodes[2].Close()
	if down := recvTimeout(t, nodes[0].Inbox()); down.Kind != KindPlaceDown || down.From != 2 {
		t.Fatalf("expected place-down for 2, got %+v", down)
	}

	// A process restarted at the old incarnation must stay out.
	stale, err := ListenMeshTCP(addrs, 2, MeshOptions{Incarnation: 1})
	if err != nil {
		t.Fatalf("stale restart: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // let its eager hello be rejected
	if !nodes[0].Down(2) {
		t.Fatalf("stale incarnation must not clear the down mark")
	}
	stale.Close()

	// A bumped incarnation rejoins: down mark clears, traffic flows.
	fresh, err := ListenMeshTCP(addrs, 2, MeshOptions{Incarnation: 2})
	if err != nil {
		t.Fatalf("rejoin restart: %v", err)
	}
	defer fresh.Close()
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].Down(2) {
		if time.Now().After(deadline) {
			t.Fatalf("place 2 still down after rejoin with bumped incarnation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := nodes[0].Send(Message{Kind: KindData, To: 2, Payload: []byte("wb")}); err != nil {
		t.Fatalf("send after rejoin: %v", err)
	}
	if got := recvTimeout(t, fresh.Inbox()); string(got.Payload) != "wb" {
		t.Fatalf("post-rejoin delivery %+v", got)
	}
}

// TestTCPMeshDialBackoffAbortsOnClose is the context-aware-backoff
// regression: a flusher stuck in a multi-second dial backoff must exit
// promptly when the node closes, instead of sleeping out its schedule.
func TestTCPMeshDialBackoffAbortsOnClose(t *testing.T) {
	base := runtime.NumGoroutine()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lns[1].Close() // place 1 is a ghost: dials fail instantly
	opts := MeshOptions{dialAttempts: 10, dialBackoff: 5 * time.Second, Listener: lns[0]}
	n0, err := ListenMeshTCP(addrs, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := n0.Send(Message{Kind: KindData, To: 1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // flusher is now in its 5s backoff
	n0.Close()
	// Without the stop-channel select the flusher holds its goroutine for
	// the remaining backoff (seconds); with it, everything unwinds fast.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive 2s after Close (baseline %d): dial backoff did not abort",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPMeshWindowedFaults drives the wall-clock side of the extended
// fault vocabulary: an active partition swallows traffic until it
// heals, gray failures add latency, duplication delivers twice, and
// certain loss drops heartbeats but no spawn.
func TestTCPMeshWindowedFaults(t *testing.T) {
	var ctrs metrics.Counters
	nodes := startTCPMesh(t, 2, func(int) MeshOptions { return MeshOptions{Counters: &ctrs} })
	if err := nodes[0].AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	heal := 300 * time.Millisecond
	nodes[0].InjectFaults(fault.NewInjector(&fault.Plan{
		Partitions: []fault.Partition{{GroupA: []int{0}, AtNS: 1, HealNS: heal.Nanoseconds()}},
	}))
	if err := nodes[0].Send(Message{Kind: KindData, To: 1, Payload: []byte("cut")}); err != nil {
		t.Fatalf("partitioned send must be silently swallowed, got %v", err)
	}
	select {
	case m := <-nodes[1].Inbox():
		t.Fatalf("message crossed an active partition: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if got := ctrs.Snapshot().DroppedMessages; got != 1 {
		t.Fatalf("DroppedMessages = %d, want 1", got)
	}
	time.Sleep(heal) // wall clock passes the heal instant
	if err := nodes[0].Send(Message{Kind: KindData, To: 1, Payload: []byte("healed")}); err != nil {
		t.Fatalf("post-heal send: %v", err)
	}
	if got := recvTimeout(t, nodes[1].Inbox()); string(got.Payload) != "healed" {
		t.Fatalf("post-heal delivery %+v", got)
	}

	// Gray failure: the send path absorbs the extra latency.
	nodes[0].InjectFaults(fault.NewInjector(&fault.Plan{
		Grays: []fault.Gray{{From: 0, To: 1, ExtraNS: (60 * time.Millisecond).Nanoseconds()}},
	}))
	start := time.Now()
	if err := nodes[0].Send(Message{Kind: KindData, To: 1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("gray link send took %v, want >= ~60ms", elapsed)
	}
	recvTimeout(t, nodes[1].Inbox())

	// Duplication: two copies arrive, the duplicate is counted.
	nodes[0].InjectFaults(fault.NewInjector(&fault.Plan{DupProb: 1}))
	if err := nodes[0].Send(Message{Kind: KindData, To: 1, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := recvTimeout(t, nodes[1].Inbox()); got.Seq != 9 {
			t.Fatalf("copy %d = %+v", i, got)
		}
	}
	if got := ctrs.Snapshot().DuplicatedMessages; got != 1 {
		t.Fatalf("DuplicatedMessages = %d, want 1", got)
	}

	// Certain loss drops heartbeats alone: the beat is counted and never
	// arrives, while a spawn sent after it still does.
	nodes[0].InjectFaults(fault.NewInjector(&fault.Plan{DropProb: 1}))
	if err := nodes[0].Send(Message{Kind: KindHeartbeat, To: 1}); err != nil {
		t.Fatalf("dropped heartbeat must be silent, got %v", err)
	}
	if got := ctrs.Snapshot().DroppedMessages; got != 2 {
		t.Fatalf("DroppedMessages = %d, want 2 (the partitioned send and the heartbeat)", got)
	}
	if err := nodes[0].Send(Message{Kind: KindSpawn, To: 1, Payload: []byte("job")}); err != nil {
		t.Fatal(err)
	}
	if got := recvTimeout(t, nodes[1].Inbox()); got.Kind != KindSpawn {
		t.Fatalf("received %+v, want the spawn (the heartbeat was dropped)", got)
	}
}

// TestAwaitPeersNamesPlaces is the front door's start-up wait: compute
// places 0..2 and client seat 3, with the client and executor 1 up, the
// client first, and executor 2 not started. A wait that counted
// handshaked seats let the client stand in for executor 2 and returned
// with it missing; the wait names the places it needs.
func TestAwaitPeersNamesPlaces(t *testing.T) {
	const seats = 4
	need := []int{1, 2}
	t.Run("tcp-mesh", func(t *testing.T) {
		lns := make([]net.Listener, seats)
		addrs := make([]string, seats)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
		start := func(seat int) *TCPMesh {
			m, err := ListenMeshTCP(addrs, seat, MeshOptions{Listener: lns[seat]})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			return m
		}
		front := start(0)
		start(3)
		start(1)
		if err := front.AwaitPeers(need, 500*time.Millisecond); err == nil {
			t.Fatal("AwaitPeers returned with executor 2 missing")
		}
		start(2)
		if err := front.AwaitPeers(need, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	})
}
