package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"distws/internal/adapt"
	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/obs"
)

// scriptEngine is a scripted sched.Engine: a clock that only Wait moves, a
// set of victims that are down or visibly empty from the start, one that
// goes down after a number of waits, and a fixed loot per delivered
// request. It logs what the sweep did to it.
type scriptEngine struct {
	now       int64
	skip      map[int]bool
	downAfter int // waits after which every victim is skipped (0: never)
	loot      int

	waits  []int64
	events []scriptEvent
	steals []int // victims whose request was delivered
}

type scriptEvent struct {
	kind   obs.Kind
	victim int
	dur    int64
}

func (e *scriptEngine) Skip(v int) bool {
	return e.skip[v] || e.downAfter > 0 && len(e.waits) >= e.downAfter
}
func (e *scriptEngine) Now() int64 { return e.now }
func (e *scriptEngine) Wait(ns int64) {
	e.now += ns
	e.waits = append(e.waits, ns)
}
func (e *scriptEngine) Record(k obs.Kind, victim int, dur int64) {
	e.events = append(e.events, scriptEvent{k, victim, dur})
}
func (e *scriptEngine) Steal(victim, chunk int) (got, left int) {
	e.steals = append(e.steals, victim)
	return e.loot, 0
}

// TestSweepOracle runs Thief.Sweep against scripted fates and asserts
// everything it is responsible for: the full counter delta, the event
// sequence, the time spent and the number of requests. Fates come from a
// real fault.Injector: a link that always drops, a reply that is always
// duplicated, or a partition over the scripted clock that heals while the
// thief backs off.
//
// Three of these outcomes are ones a parent engine did not have: core
// recorded KindTimeout with duration 0 and the simulator with the unjittered
// timeout<<attempt, where both now carry the backoff that follows (0 after
// the last attempt); the simulator also charged that wait after the last
// attempt, and counted StealRequests per delivered visit, not per request.
func TestSweepOracle(t *testing.T) {
	const timeout = 1000
	probe, lost := obs.KindProbe, obs.KindTimeout
	cases := []struct {
		name     string
		places   int
		receiver bool
		plan     *fault.Plan
		eng      scriptEngine
		found    bool
		want     metrics.Snapshot
		events   []obs.Kind // all against victim 1 unless places > 2
		steals   int
		late     int64 // injected lateness slept besides the backoffs
	}{
		{
			name: "delivered first try", places: 2, eng: scriptEngine{loot: 2}, found: true,
			want:   metrics.Snapshot{RemoteProbes: 1, Messages: 2, RemoteSteals: 2},
			events: []obs.Kind{probe}, steals: 1,
		},
		{
			name: "delivered, nothing there", places: 2, receiver: true,
			want:   metrics.Snapshot{RemoteProbes: 1, StealRequests: 1, Messages: 2},
			events: []obs.Kind{probe}, steals: 1,
		},
		{
			// The cut is open at the first request and has healed by the
			// earliest instant the retry can go out (timeout/2 later).
			name: "lost then delivered", places: 2, eng: scriptEngine{now: 10, loot: 1}, found: true,
			plan: &fault.Plan{Partitions: []fault.Partition{{GroupA: []int{0}, AtNS: 1, HealNS: 10 + timeout/2}}},
			want: metrics.Snapshot{RemoteProbes: 2, Messages: 4, DroppedMessages: 1, StealTimeouts: 1,
				Retries: 1, RemoteSteals: 1},
			events: []obs.Kind{probe, lost, probe}, steals: 1,
		},
		{
			name: "lost every time", places: 2, receiver: true, eng: scriptEngine{loot: 1},
			plan: &fault.Plan{DropProb: 1},
			want: metrics.Snapshot{RemoteProbes: stealMaxAttempts, StealRequests: stealMaxAttempts,
				Messages: 2 * stealMaxAttempts, DroppedMessages: stealMaxAttempts,
				StealTimeouts: stealMaxAttempts, Retries: stealMaxAttempts - 1},
			events: []obs.Kind{probe, lost, probe, lost, probe, lost},
		},
		{
			name: "duplicated reply behind a gray link", places: 2, eng: scriptEngine{loot: 1}, found: true,
			plan:   &fault.Plan{DupProb: 1, Grays: []fault.Gray{{From: 0, To: 1, ExtraNS: 70}}},
			want:   metrics.Snapshot{RemoteProbes: 1, Messages: 3, DuplicatedMessages: 1, RemoteSteals: 1},
			events: []obs.Kind{probe}, steals: 1, late: 70,
		},
		{
			name: "victim goes down between retries", places: 2, eng: scriptEngine{downAfter: 1, loot: 1},
			plan:   &fault.Plan{DropProb: 1},
			want:   metrics.Snapshot{RemoteProbes: 1, Messages: 2, DroppedMessages: 1, StealTimeouts: 1},
			events: []obs.Kind{probe, lost},
		},
		{
			name: "every victim down or visibly empty", places: 4,
			eng: scriptEngine{skip: map[int]bool{1: true, 2: true, 3: true}, loot: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ctrs metrics.Counters
			th := Thief{Policy: DistWS, Self: 0, Places: c.places, Rng: rand.New(rand.NewSource(1)),
				Receiver: c.receiver, TimeoutNS: timeout, Inj: fault.NewInjector(c.plan), Ctrs: &ctrs}
			e := c.eng
			if found := th.Sweep(&e); found != c.found {
				t.Errorf("Sweep = %v, want %v", found, c.found)
			}
			if got := ctrs.Snapshot(); got != c.want {
				t.Errorf("counters:\n got %+v\nwant %+v", got, c.want)
			}
			var kinds []obs.Kind
			var backoffs []int64
			lostSoFar := 0
			for _, ev := range e.events {
				kinds = append(kinds, ev.kind)
				if ev.victim != 1 {
					t.Errorf("%v recorded against victim %d, want 1", ev.kind, ev.victim)
				}
				if ev.kind != lost {
					if ev.dur != 0 {
						t.Errorf("%v carries duration %d, want 0", ev.kind, ev.dur)
					}
					continue
				}
				// A loss carries the backoff it cost: the timeout doubled per
				// loss so far, jittered into [d/2, d]; the last costs nothing.
				lostSoFar++
				if d := int64(timeout) << (lostSoFar - 1); lostSoFar == stealMaxAttempts {
					if ev.dur != 0 {
						t.Errorf("final timeout carries %d ns, want 0", ev.dur)
					}
				} else if ev.dur < d/2 || ev.dur > d {
					t.Errorf("timeout %d carries %d ns, want within [%d, %d]", lostSoFar, ev.dur, d/2, d)
				} else {
					backoffs = append(backoffs, ev.dur)
				}
			}
			if !reflect.DeepEqual(kinds, c.events) {
				t.Errorf("events %v, want %v", kinds, c.events)
			}
			// Time spent: exactly the recorded backoffs, in order, and any
			// injected lateness once the request got through.
			wantWaits := backoffs
			if c.late > 0 {
				wantWaits = append(wantWaits, c.late)
			}
			if !reflect.DeepEqual(e.waits, wantWaits) {
				t.Errorf("waits %v, want %v", e.waits, wantWaits)
			}
			if len(e.steals) != c.steals {
				t.Errorf("%d delivered requests, want %d", len(e.steals), c.steals)
			}
		})
	}
}

// TestSweepFeedsTheController holds the adapt feedback to the sweep: one
// observation per victim asked, with the latency the thief's clock saw, and
// none for a victim it skipped.
func TestSweepFeedsTheController(t *testing.T) {
	ctrl := adapt.New(adapt.Config{Places: 3})
	var ctrs metrics.Counters
	th := Thief{Policy: Adaptive, Self: 0, Places: 3, Rng: rand.New(rand.NewSource(1)),
		TimeoutNS: 1000, Ctrl: ctrl, Inj: fault.NewInjector(&fault.Plan{DropProb: 1}), Ctrs: &ctrs}
	e := scriptEngine{skip: map[int]bool{2: true}}
	th.Sweep(&e)
	// Victim 1 was asked and cost three lost requests' backoff; victim 2 was
	// never asked, so the next order, which puts unobserved victims first,
	// leads with it (a fresh controller orders them [1 2] on this seed).
	if order := ctrl.AppendVictimOrder(nil, 0, rand.New(rand.NewSource(1))); !reflect.DeepEqual(order, []int{2, 1}) {
		t.Fatalf("victim order after one sweep = %v, want [2 1] (2 unobserved, 1 slow)", order)
	}
}

func TestNextAlive(t *testing.T) {
	down := map[int]bool{}
	next := func(from int) int { return NextAlive(from, 4, func(p int) bool { return down[p] }) }
	if got := next(2); got != 2 {
		t.Fatalf("NextAlive(2) with every place up = %d, want 2", got)
	}
	down[2], down[3] = true, true
	if got := next(2); got != 0 {
		t.Fatalf("NextAlive(2) = %d, want wraparound to 0", got)
	}
	if got := next(-1); got != 0 {
		t.Fatalf("NextAlive(-1) = %d, want 0 (3 is down)", got)
	}
	down[0], down[1] = true, true
	for from := -2; from < 6; from++ {
		if got := next(from); got != -1 {
			t.Fatalf("NextAlive(%d) with every place down = %d, want -1", from, got)
		}
	}
}

func TestEachLifelineRehomesDownNeighbours(t *testing.T) {
	// Place 0 of 4 has lifelines to 1 and 2. With 1 down its edge moves to
	// the next live place, 2, which is then registered twice; with only 0
	// itself alive there is nobody to register at.
	collect := func(down map[int]bool) []int {
		var got []int
		EachLifeline(0, 4, func(p int) bool { return down[p] }, func(q int) { got = append(got, q) })
		return got
	}
	if got := collect(nil); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("all up: %v, want [1 2]", got)
	}
	if got := collect(map[int]bool{1: true}); !reflect.DeepEqual(got, []int{2, 2}) {
		t.Fatalf("1 down: %v, want [2 2]", got)
	}
	if got := collect(map[int]bool{1: true, 2: true, 3: true}); got != nil {
		t.Fatalf("only self alive: %v, want none", got)
	}
	if got := collect(map[int]bool{0: true, 1: true, 2: true, 3: true}); got != nil {
		t.Fatalf("nobody alive: %v, want none", got)
	}
}
