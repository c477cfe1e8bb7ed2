// Package obs is the runtime observability subsystem: a low-overhead
// event recorder shared by the discrete-event simulator (internal/sim)
// and the real goroutine runtime (internal/core), plus exporters that
// turn recorded events into Chrome trace-event JSON (Perfetto /
// chrome://tracing), per-place utilization timelines (Fig. 7-style
// curves from real event data), and text summaries (steal latency and
// distance histograms), and a live HTTP introspection server
// (Prometheus-style metrics, pprof, on-demand trace dump).
//
// The paper's evidence is event-shaped — steal counts by distance
// (Fig. 3), message volume (Table III), per-place CPU-utilization
// curves (Fig. 7) — but aggregate counters cannot show *when* a remote
// steal fired, which victim was probed, or why a place sat idle. The
// recorder captures exactly those events with per-worker timestamps so
// steal pathologies can be diagnosed rather than inferred.
//
// # Design
//
// Tracing is off by default: a nil *Recorder is valid everywhere, and
// every method on it is a nil-check away from a no-op, so the
// instrumented hot paths pay one predictable branch when tracing is
// disabled. When enabled, events land in per-worker fixed-capacity ring
// buffers of compact structs: steady-state recording performs zero heap
// allocations, and when a ring fills the oldest events are overwritten
// while a dropped counter keeps the loss observable.
//
// Timestamps come from the clock the driving runtime configures: the
// simulator stamps events with virtual nanoseconds, the goroutine runtime
// with wall-clock nanoseconds since runtime start. Exporters carry the
// unit through so a trace file is self-describing.
package obs

import (
	"fmt"
	"sync"
)

// ClockUnit names the time base of a trace.
type ClockUnit string

const (
	// VirtualNS marks timestamps in simulator virtual nanoseconds.
	VirtualNS ClockUnit = "virtual-ns"
	// WallNS marks timestamps in wall-clock nanoseconds since run start.
	WallNS ClockUnit = "wall-ns"
)

// Kind identifies what an event records.
type Kind uint8

const (
	// KindTaskStart marks a task beginning execution on a worker.
	// Task = task id (-1 in the real runtime), Arg = home place.
	KindTaskStart Kind = iota + 1
	// KindTaskEnd marks the matching completion. Dur = execution time
	// when the producer knows it (real runtime); otherwise exporters
	// pair it with the preceding KindTaskStart on the same track.
	KindTaskEnd
	// KindSpawn marks a task arriving at its home place's deques.
	// Arg = spawning place (-1 for roots / external spawns).
	KindSpawn
	// KindStealLocal marks a successful intra-place steal from a
	// co-located worker's private deque. Arg = victim worker index.
	KindStealLocal
	// KindStealRemote marks a successful distributed steal.
	// Arg = victim place, Dur = acquisition latency (probe round trips,
	// lock wait, payload transfer), Task = first task of the chunk.
	KindStealRemote
	// KindStealFail marks one fully failed work-finding sweep, after
	// which the worker goes dormant.
	KindStealFail
	// KindProbe marks one remote steal request sent. Arg = victim place.
	KindProbe
	// KindTimeout marks a steal round trip lost to a fault and timed
	// out. Arg = victim place.
	KindTimeout
	// KindArrive marks stolen tasks being deposited in the thief
	// place's shared deque (the deque migration of §V-B3).
	// Arg = number of tasks in the chunk.
	KindArrive
	// KindCrash marks a place fail-stopping. Arg = orphaned tasks
	// re-homed to survivors.
	KindCrash
	// KindJoin marks a place joining the cluster at runtime.
	// Arg = the joiner's incarnation.
	KindJoin
	// KindDrain marks a place starting a graceful drain. Arg = queued
	// tasks offloaded to survivors.
	KindDrain
	// KindPartition marks an injected network partition taking effect.
	// Arg = the number of places on the smaller side.
	KindPartition
	// KindHeal marks a partition healing or a flapped place recovering.
	// Arg = the recovering place (-1 for a partition-wide heal).
	KindHeal
	// KindDupTake marks a relaxed-deque duplicate take being discarded
	// by dispatch-level dedup. Task = the task id (-1 in the real
	// runtime), Arg = the place that observed the duplicate.
	KindDupTake
	// KindDAGRelease marks a dataflow task's last dependency completing,
	// releasing it into the scheduler. Task = the released task,
	// Arg = its chosen home place.
	KindDAGRelease
	// KindDAGResidentHit marks a dataflow task starting with input blocks
	// already resident at its executing place. Arg = the hit count.
	KindDAGResidentHit
	// KindDAGResidentMiss marks a dataflow task fetching non-resident
	// input blocks before starting. Arg = the miss count, Dur = the
	// modelled fetch time.
	KindDAGResidentMiss
	numKinds
)

var kindNames = [...]string{
	KindTaskStart:       "task_start",
	KindTaskEnd:         "task_end",
	KindSpawn:           "spawn",
	KindStealLocal:      "steal_local",
	KindStealRemote:     "steal_remote",
	KindStealFail:       "steal_fail",
	KindProbe:           "probe",
	KindTimeout:         "timeout",
	KindArrive:          "arrive",
	KindCrash:           "crash",
	KindJoin:            "join",
	KindDrain:           "drain",
	KindPartition:       "partition",
	KindHeal:            "heal",
	KindDupTake:         "dup_take",
	KindDAGRelease:      "dag_release",
	KindDAGResidentHit:  "dag_hit",
	KindDAGResidentMiss: "dag_miss",
}

// String returns the stable wire name of the kind (used by the native
// trace file format).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a wire name back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one compact recorded event. The struct is pointer-free so
// rings hold it by value and recording never allocates.
type Event struct {
	// TS is the event timestamp in the recorder's clock unit.
	TS int64
	// Dur is a kind-specific duration in ns (0 when not applicable).
	Dur int64
	// Task is the task id the event concerns, or -1.
	Task int32
	// Arg is kind-specific (victim place, spawner, chunk size, ...).
	Arg int32
	// Kind says what happened.
	Kind Kind
}

// track is one worker's ring buffer. Single-writer in practice (each
// worker records only to its own track), but a mutex keeps concurrent
// dumps from a live introspection endpoint race-free.
type track struct {
	mu      sync.Mutex
	buf     []Event
	next    int   // write cursor
	n       int   // events held (≤ cap)
	dropped int64 // events overwritten after the ring filled
}

func (t *track) record(ev Event) {
	t.mu.Lock()
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// appendOldestFirst appends the track's events in recording order.
func (t *track) appendOldestFirst(dst []Event) ([]Event, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		dst = append(dst, t.buf[(start+i)%len(t.buf)])
	}
	return dst, t.dropped
}

// DefaultTrackCapacity is the per-worker ring size when RecorderOptions
// leaves it zero: 16384 events ≈ 512 KiB per worker.
const DefaultTrackCapacity = 16384

// RecorderOptions tunes a Recorder.
type RecorderOptions struct {
	// TrackCapacity is the fixed per-worker ring size in events.
	// Zero picks DefaultTrackCapacity.
	TrackCapacity int
}

// Recorder collects events into per-worker rings. The zero value is not
// usable; create with NewRecorder. A nil *Recorder is the disabled
// state: every method is safe to call and does nothing, so runtimes
// hold a possibly-nil recorder and call it unconditionally.
//
// A Recorder must be Configure()d by the runtime that drives it (the
// runtime knows the topology and the clock); events recorded before
// configuration are silently discarded.
type Recorder struct {
	trackCap        int
	clock           func() int64
	unit            ClockUnit
	places          int
	workersPerPlace int
	tracks          []track // place-major: index = place*workersPerPlace+worker
}

// NewRecorder returns an unconfigured recorder.
func NewRecorder(opts RecorderOptions) *Recorder {
	cap := opts.TrackCapacity
	if cap <= 0 {
		cap = DefaultTrackCapacity
	}
	return &Recorder{trackCap: cap}
}

// Configure shapes the recorder for a places×workersPerPlace run and
// installs the clock driving Record's timestamps, in nanoseconds (nil
// stamps 0: the simulator passes nil and stamps with RecordAt). The
// driving runtime calls this once before recording; reconfiguring resets
// all tracks, reusing the rings when the shape is unchanged (so a recorder
// driven across repeated same-shape runs allocates its rings once).
// Nil-safe.
func (r *Recorder) Configure(places, workersPerPlace int, clock func() int64, unit ClockUnit) {
	if r == nil {
		return
	}
	if places <= 0 || workersPerPlace <= 0 {
		panic(fmt.Sprintf("obs: Configure(%d, %d), want positive dimensions", places, workersPerPlace))
	}
	reuse := places == r.places && workersPerPlace == r.workersPerPlace && len(r.tracks) > 0
	r.places = places
	r.workersPerPlace = workersPerPlace
	r.clock = clock
	r.unit = unit
	if reuse {
		for i := range r.tracks {
			t := &r.tracks[i]
			t.mu.Lock()
			t.next, t.n, t.dropped = 0, 0, 0
			t.mu.Unlock()
		}
		return
	}
	r.tracks = make([]track, places*workersPerPlace)
	for i := range r.tracks {
		r.tracks[i].buf = make([]Event, r.trackCap)
	}
}

// Enabled reports whether the recorder is non-nil and configured.
func (r *Recorder) Enabled() bool { return r != nil && len(r.tracks) > 0 }

// Record logs one event on worker worker of place place, stamping it
// with the configured clock. It is the hot-path entry point: nil-safe,
// allocation-free, and a single predictable branch when disabled.
func (r *Recorder) Record(place, worker int, kind Kind, taskID, arg int32, dur int64) {
	if r == nil || len(r.tracks) == 0 {
		return
	}
	var ts int64
	if r.clock != nil {
		ts = r.clock()
	}
	r.RecordAt(ts, place, worker, kind, taskID, arg, dur)
}

// RecordAt is Record with a caller-supplied timestamp, for producers
// that already hold the current time. The simulator uses it with its
// virtual clock: a clock closure over the engine would force the whole
// engine to escape to the heap even with tracing off, so the engine
// passes its event-loop time explicitly instead.
func (r *Recorder) RecordAt(ts int64, place, worker int, kind Kind, taskID, arg int32, dur int64) {
	if r == nil || len(r.tracks) == 0 {
		return
	}
	idx := place*r.workersPerPlace + worker
	if idx < 0 || idx >= len(r.tracks) {
		return
	}
	r.tracks[idx].record(Event{TS: ts, Dur: dur, Task: taskID, Arg: arg, Kind: kind})
}

// Dropped returns how many events have been overwritten across all
// rings since configuration. Nil-safe.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var total int64
	for i := range r.tracks {
		t := &r.tracks[i]
		t.mu.Lock()
		total += t.dropped
		t.mu.Unlock()
	}
	return total
}

// Snapshot copies the recorded events out into an exportable TraceData,
// sorted by timestamp (ties keep per-track recording order). Nil-safe:
// a nil or unconfigured recorder yields nil.
func (r *Recorder) Snapshot() *TraceData {
	if !r.Enabled() {
		return nil
	}
	td := &TraceData{
		Places:          r.places,
		WorkersPerPlace: r.workersPerPlace,
		Unit:            r.unit,
	}
	var buf []Event
	for i := range r.tracks {
		var dropped int64
		buf, dropped = r.tracks[i].appendOldestFirst(buf[:0])
		td.Dropped += dropped
		place := int32(i / r.workersPerPlace)
		worker := int32(i % r.workersPerPlace)
		for _, ev := range buf {
			td.Events = append(td.Events, TrackEvent{Event: ev, Place: place, Worker: worker})
		}
	}
	td.sort()
	return td
}
