package sched

import (
	"fmt"
	"reflect"
	"testing"

	"distws/internal/fault"
	"distws/internal/metrics"
	"distws/internal/obs"
)

// scriptHost is a scripted sched.Host: one FIFO of task ids per place, 100
// payload bytes a task, and a log of what the place half made it do.
type scriptHost struct {
	queues map[int][]int
	log    []string
}

func (h *scriptHost) Take(place int, crashed bool) []int {
	q := h.queues[place]
	delete(h.queues, place)
	return q
}
func (h *scriptHost) Ship(t, to int) int {
	h.log = append(h.log, fmt.Sprintf("ship %d->%d", t, to))
	return 100
}
func (h *scriptHost) Queued(place int) int { return len(h.queues[place]) }
func (h *scriptHost) Lend(from, to int) (int, bool) {
	q := h.queues[from]
	h.queues[from] = q[1:]
	h.log = append(h.log, fmt.Sprintf("lend %d:%d->%d", q[0], from, to))
	return 100, true
}
func (h *scriptHost) Trace(place, worker int, k obs.Kind, arg int32) {
	h.log = append(h.log, fmt.Sprintf("%v@%d.%d:%d", k, place, worker, arg))
}

// TestPlaceOracle runs each lifecycle change and the failed-sweep tail on 4
// places of 2 workers against scripted queues and asserts everything the
// place half is responsible for: the counter delta, what it shipped or lent
// where, what it traced, and the flags each place is left with.
func TestPlaceOracle(t *testing.T) {
	cases := []struct {
		name   string
		policy Kind
		churn  []fault.Edge
		queues map[int][]int
		run    func(c *Places[int])
		want   metrics.Snapshot
		log    []string
		flags  string // active/dead/draining of places 0..3
	}{
		{
			// Re-homed round robin after the place: NextAlive(p+1+i).
			name: "crash with 3 queued", queues: map[int][]int{1: {10, 11, 12}},
			run: func(c *Places[int]) {
				if !c.Crash(1) || c.Crash(1) {
					panic("Crash(1) must succeed once")
				}
			},
			want:  metrics.Snapshot{PlacesLost: 1, TasksReExecuted: 3, Messages: 3, BytesTransferred: 300},
			log:   []string{"ship 10->2", "ship 11->3", "ship 12->0", "crash@1.0:3"},
			flags: "A.. -d. A.. A..",
		},
		{
			// Nothing queued there is re-executed; place 3, already down, is
			// skipped by the re-homing rule; Drained completes the drain.
			name: "drain", queues: map[int][]int{2: {20, 21}},
			run: func(c *Places[int]) {
				c.Crash(3)
				if !c.Drain(2) || c.Drain(2) {
					panic("Drain(2) must succeed once")
				}
				c.All[2].Drained()
			},
			want:  metrics.Snapshot{PlacesLost: 1, MembershipDrains: 1, TasksOffloaded: 2, Messages: 2, BytesTransferred: 200},
			log:   []string{"crash@3.0:0", "ship 20->0", "ship 21->0", "drain@2.0:2"},
			flags: "A.. A.. -dr -d.",
		},
		{
			name: "join", churn: []fault.Edge{{AtNS: 5, Kind: fault.EdgeJoin, Place: 3}},
			run: func(c *Places[int]) {
				if !c.All[3].Dead() || !c.Revive(3, false) || c.Revive(3, false) {
					panic("place 3 must start dead and join once")
				}
			},
			want:  metrics.Snapshot{MembershipJoins: 1},
			log:   []string{"join@3.0:1"},
			flags: "A.. A.. A.. -..",
		},
		{
			name: "flap rejoin",
			run: func(c *Places[int]) {
				c.Crash(2)
				c.Revive(2, true)
			},
			want:  metrics.Snapshot{PlacesLost: 1, MembershipRejoins: 1},
			log:   []string{"crash@2.0:0", "heal@2.0:2"},
			flags: "A.. A.. -.. A..",
		},
		{
			// Two workers a place: the second failed sweep in a row clears
			// active; a fresh assignment starts the run over.
			name: "failed-sweep run reaching the threshold",
			run: func(c *Places[int]) {
				c.FailedSweep(0, 0)
				if !c.All[0].Active() {
					panic("one failed sweep of two must not clear active")
				}
				c.FailedSweep(0, 1)
				c.All[1].Assigned()
				c.FailedSweep(1, 0)
				c.All[1].Assigned()
				c.FailedSweep(1, 1)
			},
			want:  metrics.Snapshot{FailedSteals: 4},
			log:   []string{"steal_fail@0.0:0", "steal_fail@0.1:0", "steal_fail@1.0:0", "steal_fail@1.1:0"},
			flags: "-.. A.. A.. A..",
		},
		{
			// Place 2 registers at its lifelines 3 and 0 (two messages), then
			// crashes; when place 0 has surplus its stale waiter is dropped
			// and only place 1, registered after, is served.
			name: "lifeline serve with a dead waiter", policy: LifelineWS,
			run: func(c *Places[int]) {
				h := c.Host.(*scriptHost)
				c.FailedSweep(2, 0)
				c.Crash(2)
				h.queues[0] = []int{1, 2, 3}
				c.Serve(0)
				c.FailedSweep(1, 0)
			},
			want: metrics.Snapshot{FailedSteals: 2, PlacesLost: 1, Messages: 5, BytesTransferred: 100, RemoteSteals: 1},
			log:  []string{"steal_fail@2.0:0", "crash@2.0:0", "steal_fail@1.0:0", "lend 1:0->1"},
			// Place 1's lone failed sweep leaves it active (two workers).
			flags: "A.. A.. -d. A..",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ctrs metrics.Counters
			h := &scriptHost{queues: tc.queues}
			if h.queues == nil {
				h.queues = map[int][]int{}
			}
			c := &Places[int]{Policy: tc.policy, Workers: 2, Ctrs: &ctrs, Host: h}
			for i := 0; i < 4; i++ {
				c.All = append(c.All, &Place{})
			}
			c.Init(tc.churn)
			for _, p := range c.All {
				if !p.Dead() {
					p.Assigned()
				}
			}
			tc.run(c)
			if got := ctrs.Snapshot(); got != tc.want {
				t.Errorf("counters:\n got %+v\nwant %+v", got, tc.want)
			}
			if !reflect.DeepEqual(h.log, tc.log) {
				t.Errorf("log %q, want %q", h.log, tc.log)
			}
			if got := placeFlags(c.All); got != tc.flags {
				t.Errorf("flags %q, want %q", got, tc.flags)
			}
		})
	}
}

// placeFlags renders each place as its active, dead and draining flags:
// A or -, d or ., r or ., space-separated.
func placeFlags(all []*Place) string {
	s := ""
	for i, p := range all {
		if i > 0 {
			s += " "
		}
		s += pick(p.Active(), "A", "-") + pick(p.Dead(), "d", ".") + pick(p.Draining(), "r", ".")
	}
	return s
}

func pick(on bool, yes, no string) string {
	if on {
		return yes
	}
	return no
}
