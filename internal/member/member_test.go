package member

import (
	"errors"
	"testing"
)

func ms(n int64) int64 { return n * 1e6 }

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Unknown: "unknown", Alive: "alive", Suspect: "suspect",
		Down: "down", Draining: "draining", Left: "left",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if State(99).String() != "state(99)" {
		t.Errorf("out-of-range state name = %q", State(99).String())
	}
}

// TestLifecycle walks the full state machine of the package doc:
// unknown → alive → suspect → down → alive (rejoin, bumped incarnation).
func TestLifecycle(t *testing.T) {
	tab := NewTable(3, 0, ms(10))
	if tab.State(1) != Unknown || tab.State(0) != Alive {
		t.Fatalf("fresh table: self alive, others unknown")
	}
	tr, ok := tab.Join(1, 1, ms(1))
	if !ok || tr.From != Unknown || tr.To != Alive {
		t.Fatalf("join: %+v ok=%v", tr, ok)
	}

	// Heartbeats keep it alive...
	for i := int64(2); i <= 5; i++ {
		if _, ok := tab.Heartbeat(1, 1, ms(i)); !ok {
			t.Fatalf("heartbeat at %dms rejected", i)
		}
	}
	if got := tab.Tick(ms(6)); len(got) != 0 {
		t.Fatalf("tick with fresh heartbeats produced %v", got)
	}

	// ...silence > 4×timeout suspects it (gap EWMA ≈ 1ms, floored at 10ms).
	trs := tab.Tick(ms(50))
	if len(trs) != 1 || trs[0].To != Suspect || trs[0].Place != 1 {
		t.Fatalf("suspect sweep: %v", trs)
	}
	// Suspicion is not eviction: a late heartbeat refutes it.
	tr, ok = tab.Heartbeat(1, 1, ms(51))
	if !ok || tr.To != Alive || tr.From != Suspect {
		t.Fatalf("refutation: %+v ok=%v", tr, ok)
	}

	// Full silence: suspect, then down.
	if trs = tab.Tick(ms(100)); len(trs) != 1 || trs[0].To != Suspect {
		t.Fatalf("re-suspect: %v", trs)
	}
	if trs = tab.Tick(ms(200)); len(trs) != 1 || trs[0].To != Down {
		t.Fatalf("down sweep: %v", trs)
	}

	// Echoes of the dead process are rejected; a bumped incarnation rejoins.
	if _, ok = tab.Heartbeat(1, 1, ms(201)); ok {
		t.Fatalf("stale-incarnation heartbeat must not resurrect a down place")
	}
	if _, ok = tab.Join(1, 1, ms(202)); ok {
		t.Fatalf("stale-incarnation join must be rejected")
	}
	tr, ok = tab.Join(1, 2, ms(203))
	if !ok || tr.From != Down || tr.To != Alive || tr.Incarnation != 2 {
		t.Fatalf("rejoin: %+v ok=%v", tr, ok)
	}
	if tab.Incarnation(1) != 2 {
		t.Fatalf("incarnation not recorded")
	}
}

func TestDrainLifecycle(t *testing.T) {
	tab := NewTable(3, 0, ms(10))
	tab.SeedAlive(1, 0)
	tab.SeedAlive(2, 0)
	for p := 0; p < 3; p++ {
		if tab.State(p) != Alive {
			t.Fatalf("place %d is %v after SeedAlive, want alive", p, tab.State(p))
		}
	}
	tr, ok := tab.Drain(1, ms(5))
	if !ok || tr.To != Draining {
		t.Fatalf("drain: %+v ok=%v", tr, ok)
	}
	if _, ok := tab.Drain(1, ms(6)); ok {
		t.Fatalf("double drain should be rejected")
	}
	// A draining place still heartbeats (flushing results) without
	// changing state.
	if tr, ok := tab.Heartbeat(1, 1, ms(7)); !ok || tr.To != Unknown {
		t.Fatalf("draining heartbeat: %+v ok=%v", tr, ok)
	}
	if tab.State(1) != Draining {
		t.Fatalf("heartbeat must not cancel a drain")
	}
	tr, ok = tab.Left(1)
	if !ok || tr.To != Left {
		t.Fatalf("left: %+v ok=%v", tr, ok)
	}
	if _, ok := tab.Left(2); ok {
		t.Fatalf("non-draining place cannot leave")
	}
	// A left place can come back as a new process.
	if _, ok := tab.Join(1, 1, ms(20)); ok {
		t.Fatalf("left place rejoining needs a bumped incarnation")
	}
	if tr, ok := tab.Join(1, 2, ms(21)); !ok || tr.From != Left || tr.To != Alive {
		t.Fatalf("rejoin after leave: %+v ok=%v", tr, ok)
	}
}

func TestMarkDownAndUnknownTickInert(t *testing.T) {
	tab := NewTable(4, 0, ms(10))
	tab.SeedAlive(1, 0)
	tr, ok := tab.MarkDown(1)
	if !ok || tr.To != Down {
		t.Fatalf("MarkDown: %+v ok=%v", tr, ok)
	}
	if _, ok := tab.MarkDown(1); ok {
		t.Fatalf("double MarkDown should report false")
	}
	// Seats that never joined and the self seat never time out.
	if trs := tab.Tick(ms(1e6)); len(trs) != 0 {
		t.Fatalf("unknown seats timed out: %v", trs)
	}
}

// TestAdaptiveTimeout shows the detector scaling with the observed
// heartbeat cadence: a slow-but-steady peer outlives a fixed-timeout
// detector's patience.
func TestAdaptiveTimeout(t *testing.T) {
	tab := NewTable(2, 0, ms(1))
	tab.SeedAlive(1, 0)
	// 100ms cadence → gap EWMA converges to 100ms.
	for i := int64(1); i <= 20; i++ {
		tab.Heartbeat(1, 1, ms(100*i))
	}
	// 300ms of silence is < 4×100ms: still alive.
	if trs := tab.Tick(ms(2000 + 300)); len(trs) != 0 {
		t.Fatalf("silence within adaptive bound suspected: %v", trs)
	}
	// 450ms of silence is > 4×100ms: suspect.
	if trs := tab.Tick(ms(2000 + 450)); len(trs) != 1 || trs[0].To != Suspect {
		t.Fatalf("silence beyond adaptive bound: %v", trs)
	}
}

// A place seeded alive while the clock reads 0 that never sends a beat is
// silent from 0 on: the detector must give up on it like on any other, not
// read the 0 stamp as "no stamp".
func TestSeededAtZeroThenSilent(t *testing.T) {
	tab := NewTable(2, 0, ms(10))
	tab.SeedAlive(1, 0)
	if trs := tab.Tick(ms(30)); len(trs) != 0 {
		t.Fatalf("30ms of silence is within 4×10ms: %v", trs)
	}
	if trs := tab.Tick(ms(50)); len(trs) != 1 || trs[0].To != Suspect {
		t.Fatalf("50ms of silence since the seed: %v, want suspect", trs)
	}
	if trs := tab.Tick(ms(90)); len(trs) != 1 || trs[0].To != Down {
		t.Fatalf("90ms of silence since the seed: %v, want down", trs)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	in := Payload{Incarnation: 7, State: Suspect}
	b := AppendPayload(nil, in)
	if len(b) != PayloadSize {
		t.Fatalf("encoded %d bytes, want %d", len(b), PayloadSize)
	}
	out, err := DecodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestPayloadDecodeErrors(t *testing.T) {
	good := AppendPayload(nil, Payload{Incarnation: 1})
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:PayloadSize-1],
		"long":        append(append([]byte{}, good...), 0),
		"bad version": append([]byte{99}, good[1:]...),
		"bad state":   append([]byte{payloadVersion, 200}, good[2:]...),
	}
	for name, b := range cases {
		if _, err := DecodePayload(b); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: err = %v, want ErrBadPayload", name, err)
		}
	}
}
