package vtime

import (
	"errors"
	"fmt"
	"testing"

	"distws/internal/comm"
	"distws/internal/fault"
)

// arrival is one delivered frame and when it arrived.
type arrival struct {
	at  int64
	to  int
	seq uint64
}

// record makes n log every delivery and returns the log.
func record(n *Net) *[]arrival {
	var log []arrival
	n.Deliver = func(to int, m comm.Message) { log = append(log, arrival{n.Now(), to, m.Seq}) }
	return &log
}

func drain(n *Net) {
	for n.Step() {
	}
}

// Frames arrive one link latency after they are sent, in send order, with
// From stamped; callbacks run at their time, and time only moves when Step
// is called.
func TestNetDeliversAfterLatency(t *testing.T) {
	n := NewNet(3, 100, nil)
	var from int
	log := record(n)
	deliver := n.Deliver
	n.Deliver = func(to int, m comm.Message) { from = m.From; deliver(to, m) }
	n.At(50, func() {
		n.Seat(1).Send(comm.Message{To: 2, Seq: 1})
		n.Seat(1).Send(comm.Message{To: 2, Seq: 2})
		n.Seat(1).Send(comm.Message{To: 1, Seq: 3}) // to itself: no link to cross
	})
	if n.Now() != 0 {
		t.Fatalf("time moved to %d before the first Step", n.Now())
	}
	drain(n)
	want := []arrival{{50, 1, 3}, {150, 2, 1}, {150, 2, 2}}
	if fmt.Sprint(*log) != fmt.Sprint(want) {
		t.Fatalf("arrivals %v, want %v", *log, want)
	}
	if from != 1 {
		t.Fatalf("From = %d, want the sending seat", from)
	}
	if err := n.Seat(0).Send(comm.Message{To: 3}); err == nil {
		t.Fatal("send to a seat the net does not have succeeded")
	}
}

// A seat that works defers the frames addressed to it until it is free, in
// arrival order; what it sends after working departs that much later; a
// send from a callback at the same seat does not wait.
func TestNetWorkDefersDeliveries(t *testing.T) {
	n := NewNet(2, 10, nil)
	var log []string
	n.Deliver = func(to int, m comm.Message) {
		log = append(log, fmt.Sprintf("%d:%d@%d", to, m.Seq, n.Now()))
		if to == 1 {
			n.Seat(1).Work(100)
			n.Seat(1).Send(comm.Message{To: 0, Seq: m.Seq})
		}
	}
	n.Seat(0).Send(comm.Message{To: 1, Seq: 1})
	n.Seat(0).Send(comm.Message{To: 1, Seq: 2})
	n.At(50, func() { n.Seat(1).Send(comm.Message{To: 0, Seq: 9}) }) // a heartbeat while busy
	drain(n)
	want := "[1:1@10 0:9@60 1:2@110 0:1@120 0:2@220]"
	if fmt.Sprint(log) != want {
		t.Fatalf("deliveries %v, want %s", log, want)
	}
}

// Every is a ticker that stops when its callback says so.
func TestNetEvery(t *testing.T) {
	n := NewNet(1, 0, nil)
	var at []int64
	n.Every(30, func() bool { at = append(at, n.Now()); return len(at) < 3 })
	drain(n)
	if fmt.Sprint(at) != "[30 60 90]" {
		t.Fatalf("ticks at %v, want [30 60 90]", at)
	}
}

// The fault plan's decisions: an active partition and a crashed seat lose
// every frame, whatever its kind; loss, duplication and delay follow the
// seed, so equal seeds give equal runs and different seeds do not.
func TestNetFaults(t *testing.T) {
	run := func(seed int64) string {
		n := NewNet(3, 100, fault.NewInjector(&fault.Plan{
			Seed: seed, DropProb: 0.2, DupProb: 0.2, SpikeProb: 0.3, SpikeNS: 1000,
			Partitions: []fault.Partition{{GroupA: []int{2}, AtNS: 5000, HealNS: 6000}},
			Crashes:    []fault.Crash{{Place: 1, AtVirtualNS: 8000}},
		}))
		log := record(n)
		for i := 0; i < 100; i++ {
			seq := uint64(i)
			n.At(int64(i)*100, func() {
				n.Seat(0).Send(comm.Message{Kind: comm.KindSpawn, To: 1, Seq: seq})
				n.Seat(0).Send(comm.Message{Kind: comm.KindSpawn, To: 2, Seq: seq})
			})
		}
		var crashedSend error
		n.At(9000, func() { crashedSend = n.Seat(1).Send(comm.Message{To: 0}) })
		drain(n)
		if !errors.Is(crashedSend, comm.ErrClosed) {
			t.Fatalf("send from a crashed seat: %v, want ErrClosed", crashedSend)
		}
		if !n.Crashed(1) || n.Crashed(2) {
			t.Fatalf("Crashed(1) = %v, Crashed(2) = %v after the plan's crash of seat 1", n.Crashed(1), n.Crashed(2))
		}
		reordered, copies := false, map[arrival]int{}
		last := map[int]uint64{}
		for _, a := range *log {
			if a.to == 2 && a.seq >= 50 && a.seq < 60 {
				t.Fatalf("frame %d crossed the partition", a.seq)
			}
			if a.to == 1 && a.at >= 8000 {
				t.Fatalf("frame %d reached seat 1 at %d, after it crashed", a.seq, a.at)
			}
			reordered = reordered || a.seq < last[a.to]
			last[a.to] = a.seq
			copies[arrival{to: a.to, seq: a.seq}]++
		}
		lost, twice := 0, 0
		for seq := uint64(0); seq < 50; seq++ { // before the partition and the crash
			for to := 1; to <= 2; to++ {
				switch copies[arrival{to: to, seq: seq}] {
				case 0:
					lost++
				case 2:
					twice++
				}
			}
		}
		if !reordered || lost == 0 || twice == 0 {
			t.Fatalf("the plan injected too little: reordered %v, %d frames lost, %d delivered twice", reordered, lost, twice)
		}
		return fmt.Sprint(*log)
	}
	a := run(1)
	if b := run(1); a != b {
		t.Fatalf("equal seeds, different runs:\n%s\n%s", a, b)
	}
	if c := run(2); a == c {
		t.Fatal("different seeds, identical runs: seed unused?")
	}
}
