package comm

import (
	"errors"
	"testing"
	"time"

	"distws/internal/fault"
	"distws/internal/metrics"
)

func TestMeshSendAfterSenderClose(t *testing.T) {
	m := NewMesh(2, 4, nil)
	a := m.Endpoint(0)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Send(Message{To: 1}); err != ErrClosed {
		t.Fatalf("send from closed endpoint = %v, want ErrClosed", err)
	}
}

func TestMeshDropsOnlyStealTraffic(t *testing.T) {
	var ctrs metrics.Counters
	m := NewMesh(2, 16, &ctrs)
	m.InjectFaults(fault.NewInjector(&fault.Plan{Seed: 1, DropProb: 1}))
	a, b := m.Endpoint(0), m.Endpoint(1)

	// Steal traffic is lossy: with DropProb 1 nothing arrives.
	if err := a.Send(Message{Kind: KindStealReq, To: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case got := <-b.Inbox():
		t.Fatalf("steal request should have been dropped, got %+v", got)
	case <-time.After(50 * time.Millisecond):
	}
	if got := ctrs.Snapshot().DroppedMessages; got != 1 {
		t.Fatalf("DroppedMessages = %d, want 1", got)
	}

	// Spawn traffic must be delivered regardless of the drop plan.
	if err := a.Send(Message{Kind: KindSpawn, To: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := recvTimeout(t, b.Inbox()); got.Kind != KindSpawn {
		t.Fatalf("received %+v, want spawn", got)
	}
}

func TestMeshLatencySpike(t *testing.T) {
	m := NewMesh(2, 4, nil)
	spikeNS := int64(30 * time.Millisecond)
	m.InjectFaults(fault.NewInjector(&fault.Plan{Seed: 1, SpikeProb: 1, SpikeNS: spikeNS}))
	a, b := m.Endpoint(0), m.Endpoint(1)
	start := time.Now()
	if err := a.Send(Message{Kind: KindData, To: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recvTimeout(t, b.Inbox())
	if elapsed := time.Since(start); elapsed < time.Duration(spikeNS) {
		t.Fatalf("spiked send took %v, want >= %v", elapsed, time.Duration(spikeNS))
	}
}

func TestEvictedPlaceCannotRejoin(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 2, nil)
	if err != nil {
		t.Fatalf("ListenHub: %v", err)
	}
	defer hub.Close()
	s1, err := DialSpoke(hub.Addr(), 1, nil)
	if err != nil {
		t.Fatalf("DialSpoke: %v", err)
	}
	if err := hub.AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Fail-stop: a reincarnation of place 1 is refused, surfacing as its
	// inbox closing without any delivery.
	ghost, err := DialSpoke(hub.Addr(), 1, nil)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	select {
	case _, open := <-ghost.Inbox():
		if open {
			t.Fatalf("evicted place rejoined")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("ghost spoke was not dropped")
	}
}

func TestAwaitTimeout(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 3, nil)
	if err != nil {
		t.Fatalf("ListenHub: %v", err)
	}
	defer hub.Close()
	s1, err := DialSpoke(hub.Addr(), 1, nil)
	if err != nil {
		t.Fatalf("DialSpoke: %v", err)
	}
	defer s1.Close()

	// Only 1 of 2 spokes ever joins: Await would hang; AwaitTimeout reports.
	if err := hub.AwaitTimeout(100 * time.Millisecond); err == nil {
		t.Fatalf("AwaitTimeout with a missing spoke should error")
	}

	s2, err := DialSpoke(hub.Addr(), 2, nil)
	if err != nil {
		t.Fatalf("DialSpoke(2): %v", err)
	}
	defer s2.Close()
	if err := hub.AwaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("AwaitTimeout after full join: %v", err)
	}
}

func TestPlaceDownErrorFormat(t *testing.T) {
	err := error(&PlaceDownError{Place: 3})
	if !errors.Is(err, ErrPlaceDown) {
		t.Fatalf("errors.Is failed")
	}
	if err.Error() != "comm: place 3 down" {
		t.Fatalf("Error() = %q", err.Error())
	}
	if KindPlaceDown.String() != "place-down" || KindHello.String() != "hello" {
		t.Fatalf("kind names: %v %v", KindPlaceDown, KindHello)
	}
}
