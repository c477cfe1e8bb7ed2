package comm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"distws/internal/metrics"
)

func TestMeshRoundTrip(t *testing.T) {
	var ctrs metrics.Counters
	m := NewMesh(3, 16, &ctrs)
	a, b := m.Endpoint(0), m.Endpoint(1)

	if err := a.Send(Message{Kind: KindSpawn, To: 1, Payload: []byte("hi")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := <-b.Inbox()
	if got.Kind != KindSpawn || got.From != 0 || got.To != 1 || string(got.Payload) != "hi" {
		t.Fatalf("received %+v", got)
	}
	s := ctrs.Snapshot()
	if s.Messages != 1 || s.BytesTransferred != 2 {
		t.Fatalf("counters = %d msgs %d bytes, want 1/2", s.Messages, s.BytesTransferred)
	}
}

func TestMeshSelfSendNotCounted(t *testing.T) {
	var ctrs metrics.Counters
	m := NewMesh(2, 4, &ctrs)
	e := m.Endpoint(0)
	if err := e.Send(Message{Kind: KindData, To: 0, Payload: []byte("xyz")}); err != nil {
		t.Fatalf("self send: %v", err)
	}
	<-e.Inbox()
	if got := ctrs.Snapshot().Messages; got != 0 {
		t.Fatalf("intra-place send counted as cross-node message: %d", got)
	}
}

func TestMeshInvalidDestination(t *testing.T) {
	m := NewMesh(2, 4, nil)
	if err := m.Endpoint(0).Send(Message{To: 7}); err == nil {
		t.Fatalf("send to invalid place should error")
	}
	if err := m.Endpoint(0).Send(Message{To: -1}); err == nil {
		t.Fatalf("send to negative place should error")
	}
}

func TestMeshClose(t *testing.T) {
	m := NewMesh(2, 4, nil)
	a, b := m.Endpoint(0), m.Endpoint(1)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, open := <-b.Inbox(); open {
		t.Fatalf("inbox should be closed")
	}
	if err := a.Send(Message{To: 1}); err != ErrClosed {
		t.Fatalf("send to closed endpoint = %v, want ErrClosed", err)
	}
	// Double close is idempotent.
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMeshConcurrentSenders(t *testing.T) {
	m := NewMesh(2, 1024, nil)
	dst := m.Endpoint(1)
	const senders, per = 4, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := m.Endpoint(0)
			for i := 0; i < per; i++ {
				if err := src.Send(Message{Kind: KindData, To: 1}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < senders*per; i++ {
			<-dst.Inbox()
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out draining inbox")
	}
}

func TestMeshBackpressure(t *testing.T) {
	var ctrs metrics.Counters
	m := NewMesh(2, 1, &ctrs) // single-slot inbox: second send congests
	a := m.Endpoint(0)
	if err := a.Send(Message{Kind: KindHeartbeat, To: 1}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	// A lossy heartbeat is shed with a typed error, not silently stalled.
	err := a.Send(Message{Kind: KindHeartbeat, To: 1})
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("send into full inbox = %v, want ErrBackpressure", err)
	}
	var bpe *BackpressureError
	if !errors.As(err, &bpe) || bpe.Place != 1 {
		t.Fatalf("error should carry the congested place, got %v", err)
	}
	if got, want := err.Error(), "comm: lossy message to place 1 shed: its queue is full"; got != want {
		t.Fatalf("error text = %q, want %q", got, want)
	}
	if got := ctrs.Snapshot().Backpressure; got != 1 {
		t.Fatalf("Backpressure = %d, want 1", got)
	}

	// Reliable traffic blocks instead of shedding: it must arrive once the
	// receiver drains, and the congestion is still counted.
	delivered := make(chan error, 1)
	go func() { delivered <- a.Send(Message{Kind: KindSpawn, To: 1, Payload: []byte("x")}) }()
	select {
	case err := <-delivered:
		t.Fatalf("reliable send completed against a full inbox: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	got := recvTimeout(t, m.Endpoint(1).Inbox())
	if got.Kind != KindHeartbeat {
		t.Fatalf("first drained message %+v, want the heartbeat", got)
	}
	if err := <-delivered; err != nil {
		t.Fatalf("blocked reliable send: %v", err)
	}
	got = recvTimeout(t, m.Endpoint(1).Inbox())
	if got.Kind != KindSpawn {
		t.Fatalf("second drained message %+v, want the spawn", got)
	}
	if got := ctrs.Snapshot().Backpressure; got != 2 {
		t.Fatalf("Backpressure = %d, want 2", got)
	}
}

func TestEndpointPanicsOutOfRange(t *testing.T) {
	m := NewMesh(2, 4, nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("Endpoint(9) should panic")
		}
	}()
	m.Endpoint(9)
}

func TestKindString(t *testing.T) {
	if KindSpawn.String() != "spawn" || KindHeartbeat.String() != "heartbeat" {
		t.Fatalf("kind names wrong: %v %v", KindSpawn, KindHeartbeat)
	}
	if Kind(123).String() == "" {
		t.Fatalf("unknown kind should still print")
	}
}

func TestTCPStarRoundTrip(t *testing.T) {
	var ctrs metrics.Counters
	hub, err := ListenHub("127.0.0.1:0", 3, &ctrs)
	if err != nil {
		t.Fatalf("ListenHub: %v", err)
	}
	defer hub.Close()

	s1, err := DialSpoke(hub.Addr(), 1, &ctrs)
	if err != nil {
		t.Fatalf("DialSpoke(1): %v", err)
	}
	defer s1.Close()
	s2, err := DialSpoke(hub.Addr(), 2, &ctrs)
	if err != nil {
		t.Fatalf("DialSpoke(2): %v", err)
	}
	defer s2.Close()
	if err := hub.AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Spoke -> spoke, relayed by the hub: the sender's hop and the hub's
	// forward each count once.
	if err := s1.Send(Message{Kind: KindData, To: 2, Payload: []byte("peer")}); err != nil {
		t.Fatalf("spoke-to-spoke send: %v", err)
	}
	got := recvTimeout(t, s2.Inbox())
	if got.From != 1 || string(got.Payload) != "peer" {
		t.Fatalf("spoke2 received %+v", got)
	}
	if msgs := ctrs.Snapshot().Messages; msgs != 2 {
		t.Fatalf("counted %d messages for one relayed send, want 2", msgs)
	}
}

func TestTCPSpokeValidation(t *testing.T) {
	if _, err := DialSpoke("127.0.0.1:1", 0, nil); err == nil {
		t.Fatalf("place 0 cannot be a spoke")
	}
	if _, err := DialSpoke("127.0.0.1:0", 1, nil); err == nil {
		t.Fatalf("dialing a dead address should fail")
	}
}

func TestHubRejectsBadPlaces(t *testing.T) {
	if _, err := ListenHub("127.0.0.1:0", 0, nil); err == nil {
		t.Fatalf("ListenHub with 0 places should fail")
	}
}

// TestHubNoRouteError checks that the hub drops, uncounted, a frame for
// place 0 (the hub is not a place) and one for a place with no spoke,
// and goes on relaying.
func TestHubNoRouteError(t *testing.T) {
	var ctrs metrics.Counters
	hub, err := ListenHub("127.0.0.1:0", 3, &ctrs)
	if err != nil {
		t.Fatalf("ListenHub: %v", err)
	}
	defer hub.Close()
	s1, err := DialSpoke(hub.Addr(), 1, &ctrs)
	if err != nil {
		t.Fatalf("DialSpoke(1): %v", err)
	}
	defer s1.Close()
	s2, err := DialSpoke(hub.Addr(), 2, &ctrs)
	if err != nil {
		t.Fatalf("DialSpoke(2): %v", err)
	}
	defer s2.Close()
	if err := hub.AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, to := range []int{0, 7, 2} {
		if err := s1.Send(Message{Kind: KindData, To: to, Payload: []byte{byte(to)}}); err != nil {
			t.Fatalf("send to %d: %v", to, err)
		}
	}
	// The hub handles one spoke's frames in order, so the relayed frame
	// arriving means the two before it were dropped.
	if got := recvTimeout(t, s2.Inbox()); got.To != 2 || got.Payload[0] != 2 {
		t.Fatalf("spoke2 received %+v, want the frame addressed to it", got)
	}
	if msgs := ctrs.Snapshot().Messages; msgs != 4 {
		t.Fatalf("counted %d messages for three sends and one relay, want 4", msgs)
	}
}

func recvTimeout(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for message")
		return Message{}
	}
}

func TestHubRejectsDuplicatePlace(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	s1, err := DialSpoke(hub.Addr(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	// Make sure the first spoke's handshake is fully processed before the
	// duplicate dials (otherwise the hub could register the duplicate and
	// drop the original instead).
	if err := hub.AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A second hello for place 1: the hub must drop the connection, which
	// surfaces as the duplicate spoke's inbox closing.
	dup, err := DialSpoke(hub.Addr(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case _, open := <-dup.Inbox():
		if open {
			t.Fatalf("duplicate spoke received a message instead of being dropped")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("duplicate spoke was not dropped")
	}
}

func TestSpokeSendAfterHubClose(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DialSpoke(hub.Addr(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	hub.Close()
	// The send may succeed into the OS buffer or fail; it must not hang,
	// and the spoke's inbox must close.
	_ = s.Send(Message{Kind: KindData, To: 0})
	select {
	case _, open := <-s.Inbox():
		if open {
			t.Fatalf("expected closed inbox after hub shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("spoke inbox never closed")
	}
}
