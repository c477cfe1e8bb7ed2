// Package fault provides the deterministic, seed-driven fault model the
// runtime (internal/core), the transports (internal/comm) and the
// discrete-event simulator (internal/sim) all consume. A Plan declares
// what goes wrong — place crashes at a virtual time or task-count step,
// per-link message loss, latency spikes — and an Injector turns the plan
// into individual yes/no decisions.
//
// Decisions are stateless hashes of (seed, link, decision index), so the
// simulator, which asks in a fixed order, gets an identical fault schedule
// on every run with the same seed: chaos tests can assert exact counter
// values. The real runtime asks from concurrently racing goroutines, so
// there the plan is reproducible in distribution rather than per message.
package fault

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Crash schedules the fail-stop of one place. A crashed place stops
// executing and answering steals; work queued there must be re-executed
// elsewhere. Exactly one of the two triggers should be set.
type Crash struct {
	// Place is the place that fails.
	Place int
	// AtVirtualNS is the crash instant in simulator virtual time
	// (consumed by internal/sim). Zero or negative means "not
	// time-triggered".
	AtVirtualNS int64
	// AfterTasks crashes the place once it has executed this many tasks
	// (consumed by internal/core, which has no virtual clock). Zero or
	// negative means "not step-triggered".
	AfterTasks int64
}

// Link describes the fault behaviour of one directed place pair.
// From/To of -1 match any place.
type Link struct {
	From, To int
	// DropProb is the probability in [0,1] that a message on the link is
	// silently lost.
	DropProb float64
	// SpikeProb is the probability in [0,1] that a message suffers an
	// extra latency spike of SpikeNS.
	SpikeProb float64
	// SpikeNS is the spike magnitude in nanoseconds.
	SpikeNS int64
}

// Partition splits the cluster into two sides for a time window:
// messages crossing the cut are silently lost while the window is
// active, then flow again after it heals. Time is interpreted in the
// consumer's clock — virtual nanoseconds in the simulator, wall
// nanoseconds since run start in the goroutine/TCP runtime — so the
// same plan describes the same schedule in both.
type Partition struct {
	// GroupA lists the places on one side of the cut; every other place
	// forms the other side.
	GroupA []int
	// AtNS is when the partition takes effect (must be > 0).
	AtNS int64
	// HealNS is when the partition heals. Zero means it never heals.
	HealNS int64
}

// Gray is a gray failure: a persistent latency degradation on a link
// set, active for a time window. From/To of -1 match any place, like
// Link.
type Gray struct {
	From, To int
	// ExtraNS is the added one-way latency in nanoseconds.
	ExtraNS int64
	// AtNS/UntilNS bound the active window. AtNS <= 0 means "from the
	// start"; UntilNS <= 0 means "until the end of the run".
	AtNS    int64
	UntilNS int64
}

// Flap schedules crash/recover cycles for one place: down for DownNS,
// up for UpNS, repeated Cycles times starting at AtNS.
type Flap struct {
	Place int
	// AtNS is the first failure instant (must be > 0).
	AtNS int64
	// DownNS is how long each outage lasts (must be > 0).
	DownNS int64
	// UpNS is how long the place stays recovered between outages.
	UpNS int64
	// Cycles is the number of outages (must be >= 1).
	Cycles int
}

// DownAt reports whether the flapping place is inside one of its
// scheduled outages at nowNS.
func (f Flap) DownAt(nowNS int64) bool {
	if nowNS < f.AtNS {
		return false
	}
	period := f.DownNS + f.UpNS
	for i := 0; i < f.Cycles; i++ {
		start := f.AtNS + int64(i)*period
		if nowNS >= start && nowNS < start+f.DownNS {
			return true
		}
	}
	return false
}

// Join schedules a place to be absent at startup and join the cluster
// at AtNS.
type Join struct {
	Place int
	AtNS  int64
}

// Drain schedules a graceful departure: at AtNS the place refuses new
// steals, offloads its queued work to survivors, finishes its running
// tasks, and leaves without triggering crash recovery.
type Drain struct {
	Place int
	AtNS  int64
}

// Plan is a complete declarative fault schedule for one run. The zero
// value (and a nil *Plan) is the fault-free plan.
type Plan struct {
	// Seed drives every probabilistic decision. Zero picks 1.
	Seed int64
	// Crashes lists the places that fail and when.
	Crashes []Crash
	// DropProb is the cluster-wide message-loss probability, applied to
	// links without a more specific entry in Links.
	DropProb float64
	// SpikeProb/SpikeNS is the cluster-wide latency-spike behaviour,
	// applied to links without a more specific entry in Links.
	SpikeProb float64
	SpikeNS   int64
	// Links overrides the cluster-wide probabilities per directed link.
	Links []Link

	// DupProb is the probability in [0,1] that a message is delivered
	// twice. Duplicates are absorbed by the receivers' idempotence
	// (batch-id dedup, steal-chunk accounting) and surface only in the
	// DuplicatedMessages counter.
	DupProb float64
	// Partitions lists timed network splits.
	Partitions []Partition
	// Grays lists persistent latency degradations.
	Grays []Gray
	// Flaps lists crash/recover cycles.
	Flaps []Flap
	// Joins lists places that start absent and join at runtime.
	Joins []Join
	// Drains lists places that depart gracefully at runtime.
	Drains []Drain
}

// ErrNoSurvivor is the error Validate wraps for a plan that leaves no place
// up from start to end.
var ErrNoSurvivor = errors.New("fault: no place stays up throughout the run")

// Validate checks the plan against a cluster of places places: every
// target must exist, probabilities must be in [0,1], and at least one
// place must be named by no crash, drain, flap or late join. That place
// is up from start to end, so work whose home goes down always has
// somewhere to be re-homed to: a late joiner does not help while it is
// still absent, and a flap's down window can cover another place's crash.
func (p *Plan) Validate(places int) error {
	if p == nil {
		return nil
	}
	churned := make(map[int]bool) // places some crash, drain, flap or join names
	for _, c := range p.Crashes {
		if c.Place < 0 || c.Place >= places {
			return fmt.Errorf("fault: crash of invalid place %d (have %d places)", c.Place, places)
		}
		if c.AtVirtualNS <= 0 && c.AfterTasks <= 0 {
			return fmt.Errorf("fault: crash of place %d has no trigger (set AtVirtualNS or AfterTasks)", c.Place)
		}
		churned[c.Place] = true
	}
	if err := checkProb("DropProb", p.DropProb); err != nil {
		return err
	}
	if err := checkProb("SpikeProb", p.SpikeProb); err != nil {
		return err
	}
	for _, l := range p.Links {
		if err := checkProb("link DropProb", l.DropProb); err != nil {
			return err
		}
		if err := checkProb("link SpikeProb", l.SpikeProb); err != nil {
			return err
		}
	}
	if err := checkProb("DupProb", p.DupProb); err != nil {
		return err
	}
	for _, part := range p.Partitions {
		if len(part.GroupA) == 0 || len(part.GroupA) >= places {
			return fmt.Errorf("fault: partition GroupA has %d places, want 1..%d", len(part.GroupA), places-1)
		}
		for _, m := range part.GroupA {
			if m < 0 || m >= places {
				return fmt.Errorf("fault: partition of invalid place %d (have %d places)", m, places)
			}
		}
		if part.AtNS <= 0 {
			return fmt.Errorf("fault: partition AtNS = %d, want > 0", part.AtNS)
		}
		if part.HealNS != 0 && part.HealNS <= part.AtNS {
			return fmt.Errorf("fault: partition HealNS = %d, want > AtNS (%d) or 0", part.HealNS, part.AtNS)
		}
	}
	for _, g := range p.Grays {
		if g.From < -1 || g.From >= places || g.To < -1 || g.To >= places {
			return fmt.Errorf("fault: gray link %d→%d out of range (have %d places)", g.From, g.To, places)
		}
		if g.ExtraNS <= 0 {
			return fmt.Errorf("fault: gray ExtraNS = %d, want > 0", g.ExtraNS)
		}
		if g.UntilNS > 0 && g.UntilNS <= g.AtNS {
			return fmt.Errorf("fault: gray UntilNS = %d, want > AtNS (%d) or 0", g.UntilNS, g.AtNS)
		}
	}
	for _, f := range p.Flaps {
		if f.Place < 0 || f.Place >= places {
			return fmt.Errorf("fault: flap of invalid place %d (have %d places)", f.Place, places)
		}
		if f.AtNS <= 0 || f.DownNS <= 0 || f.Cycles < 1 {
			return fmt.Errorf("fault: flap of place %d needs AtNS > 0, DownNS > 0, Cycles >= 1", f.Place)
		}
		if f.Cycles > 1 && f.UpNS <= 0 {
			return fmt.Errorf("fault: flap of place %d has %d cycles but UpNS <= 0", f.Place, f.Cycles)
		}
		churned[f.Place] = true
	}
	joined := make(map[int]bool)
	for _, j := range p.Joins {
		if j.Place < 0 || j.Place >= places {
			return fmt.Errorf("fault: join of invalid place %d (have %d places)", j.Place, places)
		}
		if j.AtNS <= 0 {
			return fmt.Errorf("fault: join of place %d needs AtNS > 0", j.Place)
		}
		if joined[j.Place] {
			return fmt.Errorf("fault: place %d joins twice", j.Place)
		}
		joined[j.Place] = true
		churned[j.Place] = true
	}
	for _, d := range p.Drains {
		if d.Place < 0 || d.Place >= places {
			return fmt.Errorf("fault: drain of invalid place %d (have %d places)", d.Place, places)
		}
		if d.AtNS <= 0 {
			return fmt.Errorf("fault: drain of place %d needs AtNS > 0", d.Place)
		}
		churned[d.Place] = true
	}
	if len(churned) >= places {
		return fmt.Errorf("%w: the plan crashes, drains, flaps or late-joins all %d places", ErrNoSurvivor, places)
	}
	return nil
}

func checkProb(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("fault: %s = %v, want [0,1]", name, v)
	}
	return nil
}

// CrashOf returns the crash entry for place, if the plan has one.
func (p *Plan) CrashOf(place int) (Crash, bool) {
	if p == nil {
		return Crash{}, false
	}
	for _, c := range p.Crashes {
		if c.Place == place {
			return c, true
		}
	}
	return Crash{}, false
}

// Injector evaluates a Plan one decision at a time. All methods are safe
// for concurrent use and are no-ops on a nil receiver, so fault-free code
// paths need no branching.
type Injector struct {
	plan  Plan
	nonce atomic.Uint64
}

// NewInjector builds an injector for plan. A nil plan yields a nil
// injector, whose methods all report "no fault".
func NewInjector(plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	in := &Injector{plan: *plan}
	if in.plan.Seed == 0 {
		in.plan.Seed = 1
	}
	return in
}

// link resolves the effective fault behaviour of the from→to link.
func (in *Injector) link(from, to int) Link {
	for _, l := range in.plan.Links {
		if (l.From == -1 || l.From == from) && (l.To == -1 || l.To == to) {
			return l
		}
	}
	return Link{
		From: from, To: to,
		DropProb:  in.plan.DropProb,
		SpikeProb: in.plan.SpikeProb,
		SpikeNS:   in.plan.SpikeNS,
	}
}

// Drop decides whether the next message from→to is lost.
func (in *Injector) Drop(from, to int) bool {
	if in == nil {
		return false
	}
	l := in.link(from, to)
	if l.DropProb <= 0 {
		return false
	}
	return in.roll(from, to) < l.DropProb
}

// SpikeNS returns the extra latency, in nanoseconds, the next message
// from→to suffers (zero when no spike fires).
func (in *Injector) SpikeNS(from, to int) int64 {
	if in == nil {
		return 0
	}
	l := in.link(from, to)
	if l.SpikeProb <= 0 || l.SpikeNS <= 0 {
		return 0
	}
	if in.roll(from, to) < l.SpikeProb {
		return l.SpikeNS
	}
	return 0
}

// CrashAtNS returns the virtual-time crash instant of place, if any.
func (in *Injector) CrashAtNS(place int) (int64, bool) {
	if in == nil {
		return 0, false
	}
	c, ok := in.plan.CrashOf(place)
	if !ok || c.AtVirtualNS <= 0 {
		return 0, false
	}
	return c.AtVirtualNS, true
}

// CrashAfterTasks returns the task-count crash trigger of place, if any.
func (in *Injector) CrashAfterTasks(place int) (int64, bool) {
	if in == nil {
		return 0, false
	}
	c, ok := in.plan.CrashOf(place)
	if !ok || c.AfterTasks <= 0 {
		return 0, false
	}
	return c.AfterTasks, true
}

// PartitionedAt reports whether a message from→to at nowNS crosses an
// active partition cut. The decision is a pure function of the link and
// the time, so the simulator (virtual clock) gets an exact schedule and
// the real runtime (wall clock) a faithful one.
func (in *Injector) PartitionedAt(from, to int, nowNS int64) bool {
	if in == nil || from == to {
		return false
	}
	for _, part := range in.plan.Partitions {
		if nowNS < part.AtNS || (part.HealNS > 0 && nowNS >= part.HealNS) {
			continue
		}
		if inGroup(part.GroupA, from) != inGroup(part.GroupA, to) {
			return true
		}
	}
	return false
}

func inGroup(group []int, place int) bool {
	for _, m := range group {
		if m == place {
			return true
		}
	}
	return false
}

// GrayNS returns the extra one-way latency a message from→to suffers at
// nowNS from active gray failures (zero when none match).
func (in *Injector) GrayNS(from, to int, nowNS int64) int64 {
	if in == nil {
		return 0
	}
	var extra int64
	for _, g := range in.plan.Grays {
		if g.From != -1 && g.From != from {
			continue
		}
		if g.To != -1 && g.To != to {
			continue
		}
		if nowNS < g.AtNS || (g.UntilNS > 0 && nowNS >= g.UntilNS) {
			continue
		}
		extra += g.ExtraNS
	}
	return extra
}

// FlapDownAt reports whether place is inside a scheduled flap outage at
// nowNS.
func (in *Injector) FlapDownAt(place int, nowNS int64) bool {
	if in == nil {
		return false
	}
	for _, f := range in.plan.Flaps {
		if f.Place == place && f.DownAt(nowNS) {
			return true
		}
	}
	return false
}

// Duplicate decides whether the next message from→to is delivered twice.
func (in *Injector) Duplicate(from, to int) bool {
	if in == nil || in.plan.DupProb <= 0 {
		return false
	}
	return in.roll(from, to) < in.plan.DupProb
}

// RoundTrip decides the fate of one steal request/reply exchange between
// thief and victim at nowNS: whether the request or the reply is lost (to
// an active partition or a dropped message), else how much extra latency
// the exchange pays (a spike on the request, gray links both ways) and
// whether the reply arrives twice. The goroutine runtime and the simulator
// both ask here, and the decision counter is consumed in one fixed order —
// partition, drop there, drop back, spike, gray, duplicate — so a seeded
// plan yields one schedule.
func (in *Injector) RoundTrip(thief, victim int, nowNS int64) (lost bool, extraNS int64, dup bool) {
	if in == nil {
		return false, 0, false
	}
	if in.PartitionedAt(thief, victim, nowNS) || in.Drop(thief, victim) || in.Drop(victim, thief) {
		return true, 0, false
	}
	extraNS = in.SpikeNS(thief, victim) + in.GrayNS(thief, victim, nowNS) + in.GrayNS(victim, thief, nowNS)
	return false, extraNS, in.Duplicate(victim, thief)
}

// roll draws a deterministic uniform in [0,1) for the next decision on
// the from→to link: a stateless hash of the seed, the link, and a global
// decision counter.
func (in *Injector) roll(from, to int) float64 {
	n := in.nonce.Add(1)
	h := mix(uint64(in.plan.Seed), uint64(from+1)*0x1_0000_01+uint64(to+1))
	h = mix(h, n)
	return float64(h>>11) / float64(1<<53)
}

// mix is the splitmix64 finalizer over a seeded combination of a and b.
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
