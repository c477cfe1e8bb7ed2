package node

import (
	"bytes"
	"testing"
	"time"

	"distws/internal/comm"
	"distws/internal/member"
	"distws/internal/task"
)

// spawn is a KindSpawn of the registered echo task, as the front door
// sends it.
func spawn(t *testing.T, seq uint64) comm.Message {
	t.Helper()
	env := &task.Envelope{Name: "test.echo", Arg: []byte{byte(seq)}, Home: 1, Origin: 0, Class: task.Flexible}
	payload, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return comm.Message{Kind: comm.KindSpawn, To: 1, Seq: seq, Payload: payload}
}

// recv is the next frame at the scripted front door.
func recv(t *testing.T, front comm.Endpoint) comm.Message {
	t.Helper()
	select {
	case m := <-front.Inbox():
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no frame from the executor within 5s")
		return comm.Message{}
	}
}

// serve starts ex at place 1 of an in-process mesh whose place 0 the test
// scripts, and returns that front door and the channel Serve's result
// arrives on.
func serve(ex *Executor) (comm.Endpoint, chan int) {
	m := comm.NewMesh(2, 64, nil)
	ex.Node, ex.Place = m.Endpoint(1), 1
	if ex.Registry == nil {
		ex.Registry = task.NewRegistry()
		ex.Registry.Register("test.echo", func([]byte) error { return nil })
	}
	ran := make(chan int, 1)
	go func() {
		n, err := ex.Serve()
		if err != nil {
			n = -1
		}
		ran <- n
	}()
	return m.Endpoint(0), ran
}

// TestExecutorDrainGraceful is the executor's half of a graceful drain:
// asked to drain while it runs one spawn with two more queued behind it,
// it announces KindDrain, finishes and answers the running spawn, returns
// the queued ones unstarted with KindSpawnNack, and leaves when the front
// door releases it. The front door's half is service's
// TestDrainWithAFullWindow.
func TestExecutorDrainGraceful(t *testing.T) {
	started, gate := make(chan struct{}, 3), make(chan struct{})
	ex := &Executor{Run: func(_ string, arg []byte) ([]byte, error) {
		started <- struct{}{}
		<-gate
		return arg, nil
	}}
	front, ran := serve(ex)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := front.Send(spawn(t, seq)); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	ex.Drain()
	close(gate)
	want := []struct {
		kind comm.Kind
		seq  uint64
	}{{comm.KindDrain, 0}, {comm.KindSpawnDone, 1}, {comm.KindSpawnNack, 2}, {comm.KindSpawnNack, 3}}
	for _, w := range want {
		if m := recv(t, front); m.Kind != w.kind || m.Seq != w.seq {
			t.Fatalf("front door got %v seq %d, want %v seq %d", m.Kind, m.Seq, w.kind, w.seq)
		}
	}
	if err := front.Send(comm.Message{Kind: comm.KindShutdown, To: 1}); err != nil {
		t.Fatal(err)
	}
	if n := <-ran; n != 1 {
		t.Fatalf("Serve returned %d spawn(s) run, want the 1 that started before the drain", n)
	}
}

// TestExecutorHeedsOnlyTheFrontDoor pins that a client seat can neither
// spawn on an executor, skipping admission and its argument check, nor
// shut it down: only place 0 is heeded.
func TestExecutorHeedsOnlyTheFrontDoor(t *testing.T) {
	var ran []byte
	reg := task.NewRegistry()
	reg.Register("test.echo", func([]byte) error { return nil })
	ex := &Executor{Node: comm.NewMesh(3, 64, nil).Endpoint(1), Place: 1, Registry: reg,
		Run: func(_ string, arg []byte) ([]byte, error) { ran = append(ran, arg...); return arg, nil }}
	if err := ex.Start(); err != nil {
		t.Fatal(err)
	}
	fromClient := spawn(t, 1)
	fromClient.From = 2
	if stop, err := ex.Handle(fromClient); stop || err != nil || len(ran) != 0 {
		t.Fatalf("a client seat's spawn: stop %v, err %v, ran %v; want nothing run", stop, err, ran)
	}
	if stop, err := ex.Handle(comm.Message{Kind: comm.KindShutdown, From: 2, To: 1}); stop || err != nil {
		t.Fatalf("a client seat's shutdown: stop %v, err %v; want it ignored", stop, err)
	}
	if stop, err := ex.Handle(spawn(t, 2)); stop || err != nil || !bytes.Equal(ran, []byte{2}) {
		t.Fatalf("the front door's spawn: stop %v, err %v, ran %v; want it run", stop, err, ran)
	}
}

// TestExecutorJoinAbsent is the executor's half of a late join: an
// executor the front door lists as Absent announces itself with KindJoin,
// carrying its incarnation, before anything else, then serves. The front
// door's half is service's TestJoinLate.
func TestExecutorJoinAbsent(t *testing.T) {
	ex := &Executor{Announce: true, Incarnation: 2,
		Run: func(_ string, arg []byte) ([]byte, error) { return arg, nil }}
	front, ran := serve(ex)
	m := recv(t, front)
	if m.Kind != comm.KindJoin {
		t.Fatalf("first frame is %v, want KindJoin", m.Kind)
	}
	if p, err := member.DecodePayload(m.Payload); err != nil || p.Incarnation != 2 || p.State != member.Alive {
		t.Fatalf("join payload %+v (%v), want incarnation 2, alive", p, err)
	}
	if err := front.Send(spawn(t, 7)); err != nil {
		t.Fatal(err)
	}
	if m := recv(t, front); m.Kind != comm.KindSpawnDone || m.Seq != 7 {
		t.Fatalf("front door got %v seq %d, want KindSpawnDone seq 7", m.Kind, m.Seq)
	}
	if err := front.Send(comm.Message{Kind: comm.KindShutdown, To: 1}); err != nil {
		t.Fatal(err)
	}
	if n := <-ran; n != 1 {
		t.Fatalf("Serve returned %d, want 1 spawn run", n)
	}
}

// TestExecutorStopsWhenFrontDoorIsLost: a TCP mesh reports the end of its
// link to the front door as a KindPlaceDown from place 0, not by closing
// the inbox, and a front door that closes right after its drain can take
// the KindShutdown it queued down with the link. The executor must end
// there instead of serving a front door that is gone.
func TestExecutorStopsWhenFrontDoorIsLost(t *testing.T) {
	ex := &Executor{Run: func(_ string, arg []byte) ([]byte, error) { return arg, nil }}
	front, ran := serve(ex)
	if err := front.Send(comm.Message{Kind: comm.KindPlaceDown, To: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ran:
		if n != 0 {
			t.Fatalf("Serve returned %d, want 0 spawns run and no error", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("executor kept serving after its front door was reported down")
	}
}

func TestExecutorValidation(t *testing.T) {
	if _, err := (&Executor{}).Serve(); err == nil {
		t.Fatalf("empty executor should be rejected")
	}
}

func TestExecutorUnknownTask(t *testing.T) {
	reg := task.NewRegistry()
	m := comm.NewMesh(2, 64, nil)
	env := &task.Envelope{Name: "not.registered", Origin: 0, Home: 1, Class: task.Flexible}
	payload, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Endpoint(0).Send(comm.Message{Kind: comm.KindSpawn, To: 1, Seq: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	ex := &Executor{
		Node:     m.Endpoint(1),
		Place:    1,
		Registry: reg,
		Run:      func(string, []byte) ([]byte, error) { return nil, nil },
	}
	if _, err := ex.Serve(); err == nil {
		t.Fatalf("unknown task should fail the executor")
	}
}
