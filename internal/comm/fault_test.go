package comm

import (
	"errors"
	"testing"
	"time"
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
