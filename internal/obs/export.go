package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"distws/internal/metrics"
)

// TrackEvent is an Event annotated with the place×worker track it was
// recorded on — the form exporters and the native trace file work with.
type TrackEvent struct {
	Event
	Place  int32
	Worker int32
}

// TraceData is an exportable, self-describing copy of a recorded trace:
// the cluster shape, the clock unit, the drop count, and every event
// sorted by timestamp. Obtain one from Recorder.Snapshot or ReadEvents.
type TraceData struct {
	Places          int
	WorkersPerPlace int
	Unit            ClockUnit
	Dropped         int64
	Events          []TrackEvent
}

// sort orders events by timestamp, breaking ties by track then by the
// original per-track order (the sort is stable and tracks append in
// recording order).
func (td *TraceData) sort() {
	sort.SliceStable(td.Events, func(i, j int) bool {
		a, b := &td.Events[i], &td.Events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Place != b.Place {
			return a.Place < b.Place
		}
		return a.Worker < b.Worker
	})
}

// interval is one task execution span on a track.
type interval struct {
	place, worker int32
	task          int32
	start, end    int64
}

// taskIntervals pairs KindTaskStart/KindTaskEnd events per track into
// execution intervals. A start without an end (task running when the
// ring was snapshotted) is dropped; an end without a start (start
// overwritten by ring wraparound) falls back to its Dur field when the
// producer filled it in, and is dropped otherwise.
func (td *TraceData) taskIntervals() []interval {
	type key struct{ place, worker int32 }
	pending := make(map[key]int64)
	var out []interval
	for i := range td.Events {
		ev := &td.Events[i]
		k := key{ev.Place, ev.Worker}
		switch ev.Kind {
		case KindTaskStart:
			pending[k] = ev.TS
		case KindTaskEnd:
			start, ok := pending[k]
			if ok {
				delete(pending, k)
			} else if ev.Dur > 0 {
				start = ev.TS - ev.Dur
			} else {
				continue
			}
			out = append(out, interval{
				place: ev.Place, worker: ev.Worker,
				task: ev.Task, start: start, end: ev.TS,
			})
		}
	}
	return out
}

// Span returns the trace's time range: 0 (run start in both clock
// models) to the latest task completion, falling back to the latest
// event of any kind when the trace holds no completed tasks.
func (td *TraceData) Span() (start, end int64) {
	for i := range td.Events {
		ev := &td.Events[i]
		if ev.Kind == KindTaskEnd && ev.TS > end {
			end = ev.TS
		}
	}
	if end == 0 {
		for i := range td.Events {
			if ts := td.Events[i].TS; ts > end {
				end = ts
			}
		}
	}
	return 0, end
}

// PlaceBusyNS sums task execution time per place from the recorded
// start/end pairs — the event-derived counterpart of the aggregate
// busy-time counters in internal/metrics.
func (td *TraceData) PlaceBusyNS() []int64 {
	busy := make([]int64, td.Places)
	for _, iv := range td.taskIntervals() {
		if int(iv.place) < len(busy) {
			busy[iv.place] += iv.end - iv.start
		}
	}
	return busy
}

// BusyFractions returns each place's busy fraction of the trace span in
// percent — the quantity the simulator's Result.Utilization reports from
// counters, here reproduced purely from events.
func (td *TraceData) BusyFractions() []float64 {
	out := make([]float64, td.Places)
	_, end := td.Span()
	denom := float64(end) * float64(td.WorkersPerPlace)
	if denom <= 0 {
		return out
	}
	for p, b := range td.PlaceBusyNS() {
		f := 100 * float64(b) / denom
		if f > 100 {
			f = 100
		}
		out[p] = f
	}
	return out
}

// chromeEvent is one Trace Event Format object. Timestamps and
// durations are microseconds (the format's unit); pid is the place and
// tid the worker, giving one named track per place×worker.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int32          `json:"pid"`
	TID   int32          `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace writes the trace in Chrome trace-event JSON (the
// "JSON array" flavour), loadable in Perfetto or chrome://tracing.
// Completed tasks become complete ("X") duration events; everything
// else becomes an instant ("i") event on its worker's track. Metadata
// events name every place (process) and place×worker (thread).
func (td *TraceData) WriteChromeTrace(w io.Writer) error {
	var evs []chromeEvent
	for p := int32(0); p < int32(td.Places); p++ {
		evs = append(evs, chromeEvent{
			Name: "process_name", Phase: "M", PID: p,
			Args: map[string]any{"name": fmt.Sprintf("place %d", p)},
		})
		for wk := int32(0); wk < int32(td.WorkersPerPlace); wk++ {
			evs = append(evs, chromeEvent{
				Name: "thread_name", Phase: "M", PID: p, TID: wk,
				Args: map[string]any{"name": fmt.Sprintf("place %d worker %d", p, wk)},
			})
		}
	}
	for _, iv := range td.taskIntervals() {
		dur := usec(iv.end - iv.start)
		name := "task"
		if iv.task >= 0 {
			name = fmt.Sprintf("task %d", iv.task)
		}
		evs = append(evs, chromeEvent{
			Name: name, Phase: "X", TS: usec(iv.start), Dur: &dur,
			PID: iv.place, TID: iv.worker, Cat: "task",
		})
	}
	for i := range td.Events {
		ev := &td.Events[i]
		switch ev.Kind {
		case KindTaskStart, KindTaskEnd:
			continue // rendered as X events above
		}
		ce := chromeEvent{
			Name: ev.Kind.String(), Phase: "i", TS: usec(ev.TS),
			PID: ev.Place, TID: ev.Worker, Cat: "sched", Scope: "t",
		}
		args := map[string]any{}
		if ev.Task >= 0 {
			args["task"] = ev.Task
		}
		switch ev.Kind {
		case KindStealRemote:
			args["victim"] = ev.Arg
			args["latency_ns"] = ev.Dur
			args["distance"] = stealDistance(int(ev.Place), int(ev.Arg))
		case KindProbe, KindTimeout:
			args["victim"] = ev.Arg
		case KindStealLocal:
			args["victim_worker"] = ev.Arg
		case KindSpawn:
			args["from_place"] = ev.Arg
		case KindArrive:
			args["chunk"] = ev.Arg
		case KindCrash:
			args["orphans"] = ev.Arg
		}
		if len(args) > 0 {
			ce.Args = args
		}
		evs = append(evs, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}

// WriteUtilizationCSV writes a per-place busy-fraction timeline: the
// trace span divided into buckets equal time buckets, one row per
// bucket, one column per place, values in percent of that place's
// worker capacity — the data behind Fig. 7-style utilization curves.
// Task intervals spanning bucket edges are clipped proportionally.
func (td *TraceData) WriteUtilizationCSV(w io.Writer, buckets int) error {
	if buckets <= 0 {
		buckets = 100
	}
	_, end := td.Span()
	if end <= 0 {
		_, err := fmt.Fprintln(w, "bucket_start_ns,bucket_end_ns")
		return err
	}
	width := (end + int64(buckets) - 1) / int64(buckets)
	if width <= 0 {
		width = 1
	}
	nb := int((end + width - 1) / width)
	busy := make([][]int64, nb) // bucket -> place -> busy ns
	for i := range busy {
		busy[i] = make([]int64, td.Places)
	}
	for _, iv := range td.taskIntervals() {
		if int(iv.place) >= td.Places {
			continue
		}
		for t := iv.start; t < iv.end; {
			b := int(t / width)
			if b >= nb {
				break
			}
			bEnd := (int64(b) + 1) * width
			seg := iv.end
			if bEnd < seg {
				seg = bEnd
			}
			busy[b][iv.place] += seg - t
			t = seg
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "bucket_start_ns,bucket_end_ns")
	for p := 0; p < td.Places; p++ {
		fmt.Fprintf(bw, ",place_%d", p)
	}
	fmt.Fprintln(bw)
	for b := 0; b < nb; b++ {
		bStart := int64(b) * width
		bEnd := bStart + width
		if bEnd > end {
			bEnd = end
		}
		denom := float64(bEnd-bStart) * float64(td.WorkersPerPlace)
		fmt.Fprintf(bw, "%d,%d", bStart, bEnd)
		for p := 0; p < td.Places; p++ {
			f := 0.0
			if denom > 0 {
				f = 100 * float64(busy[b][p]) / denom
				if f > 100 {
					f = 100
				}
			}
			fmt.Fprintf(bw, ",%.3f", f)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// renderHistogram prints h's non-empty log2 buckets, one per line.
func renderHistogram(bw io.Writer, h *metrics.Histogram, unit string) {
	total := h.Count()
	if total == 0 {
		fmt.Fprintln(bw, "  (none)")
		return
	}
	h.Buckets(func(lo, hi, c int64) {
		fmt.Fprintf(bw, "  [%9d, %9d) %s  %6d  %5.1f%%\n", lo, hi, unit, c, 100*float64(c)/float64(total))
	})
}

// WriteSummary writes a human-readable digest of the trace: event and
// drop counts, steal outcome totals, the distribution of remote-steal
// acquisition latencies, the steal distance histogram (how far stolen
// work travelled), and per-place busy fractions.
func (td *TraceData) WriteSummary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	counts := make([]int64, numKinds)
	var latency metrics.Histogram
	distance := make([]int64, td.Places)
	for i := range td.Events {
		ev := &td.Events[i]
		if int(ev.Kind) < len(counts) {
			counts[ev.Kind]++
		}
		if ev.Kind == KindStealRemote {
			latency.Record(ev.Dur)
			if d := stealDistance(int(ev.Place), int(ev.Arg)); d >= 0 && d < len(distance) {
				distance[d]++
			}
		}
	}
	_, end := td.Span()
	fmt.Fprintf(bw, "trace: %d place(s) x %d worker(s), clock %s, span %d ns\n",
		td.Places, td.WorkersPerPlace, td.Unit, end)
	fmt.Fprintf(bw, "events: %d recorded, %d dropped (ring overflow)\n", len(td.Events), td.Dropped)
	fmt.Fprintf(bw, "tasks: %d started, %d completed, %d spawn(s)\n",
		counts[KindTaskStart], counts[KindTaskEnd], counts[KindSpawn])
	fmt.Fprintf(bw, "steals: local %d, remote %d, failed sweeps %d, probes %d, timeouts %d, arrivals %d, crashes %d\n",
		counts[KindStealLocal], counts[KindStealRemote], counts[KindStealFail],
		counts[KindProbe], counts[KindTimeout], counts[KindArrive], counts[KindCrash])
	fmt.Fprintf(bw, "remote steal latency (%s):\n", td.Unit)
	renderHistogram(bw, &latency, "ns")
	fmt.Fprintln(bw, "steal distance (places):")
	anyDist := false
	for d, c := range distance {
		if c == 0 {
			continue
		}
		anyDist = true
		fmt.Fprintf(bw, "  d=%-3d %6d\n", d, c)
	}
	if !anyDist {
		fmt.Fprintln(bw, "  (none)")
	}
	fmt.Fprintln(bw, "place busy fraction:")
	for p, f := range td.BusyFractions() {
		fmt.Fprintf(bw, "  p%-3d %5.1f%%  %s\n", p, f, bar(f))
	}
	return bw.Flush()
}

// bar renders f percent as a 20-cell bar.
func bar(f float64) string {
	n := int(f / 5)
	if n > 20 {
		n = 20
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("#", n) + strings.Repeat(".", 20-n)
}

// WriteFormat dispatches to the exporter named by format: "events"
// (native JSONL), "chrome" (trace-event JSON), "csv" (utilization
// timeline; csvBuckets ≤ 0 picks 100), or "summary" (text digest).
func (td *TraceData) WriteFormat(w io.Writer, format string, csvBuckets int) error {
	switch format {
	case "events":
		return td.WriteEvents(w)
	case "chrome":
		return td.WriteChromeTrace(w)
	case "csv":
		return td.WriteUtilizationCSV(w, csvBuckets)
	case "summary":
		return td.WriteSummary(w)
	default:
		return fmt.Errorf("obs: unknown trace format %q (want events, chrome, csv, or summary)", format)
	}
}

// Native trace file format: JSON lines. The first line is a header
// identifying the format, cluster shape, clock unit, and drop count;
// every following line is one event. The format is append-friendly,
// greppable, and stable — cmd/distws-trace converts it to the other
// representations offline.

type traceHeader struct {
	Format          string    `json:"format"`
	Version         int       `json:"version"`
	Places          int       `json:"places"`
	WorkersPerPlace int       `json:"workers_per_place"`
	Clock           ClockUnit `json:"clock"`
	Dropped         int64     `json:"dropped"`
}

type traceLine struct {
	TS     int64  `json:"ts"`
	Dur    int64  `json:"dur,omitempty"`
	Task   int32  `json:"task"`
	Arg    int32  `json:"arg"`
	Kind   string `json:"kind"`
	Place  int32  `json:"place"`
	Worker int32  `json:"worker"`
}

const traceFormatName = "distws-trace"

// WriteEvents writes the trace in the native JSONL format.
func (td *TraceData) WriteEvents(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{
		Format: traceFormatName, Version: 1,
		Places: td.Places, WorkersPerPlace: td.WorkersPerPlace,
		Clock: td.Unit, Dropped: td.Dropped,
	}); err != nil {
		return err
	}
	for i := range td.Events {
		ev := &td.Events[i]
		if err := enc.Encode(traceLine{
			TS: ev.TS, Dur: ev.Dur, Task: ev.Task, Arg: ev.Arg,
			Kind: ev.Kind.String(), Place: ev.Place, Worker: ev.Worker,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEvents parses a native JSONL trace written by WriteEvents.
func ReadEvents(r io.Reader) (*TraceData, error) {
	dec := json.NewDecoder(r)
	var hdr traceHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("obs: reading trace header: %w", err)
	}
	if hdr.Format != traceFormatName {
		return nil, fmt.Errorf("obs: not a distws trace (format %q)", hdr.Format)
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("obs: unsupported trace version %d", hdr.Version)
	}
	td := &TraceData{
		Places:          hdr.Places,
		WorkersPerPlace: hdr.WorkersPerPlace,
		Unit:            hdr.Clock,
		Dropped:         hdr.Dropped,
	}
	for {
		var line traceLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("obs: reading trace event %d: %w", len(td.Events), err)
		}
		kind, err := ParseKind(line.Kind)
		if err != nil {
			return nil, err
		}
		td.Events = append(td.Events, TrackEvent{
			Event:  Event{TS: line.TS, Dur: line.Dur, Task: line.Task, Arg: line.Arg, Kind: kind},
			Place:  line.Place,
			Worker: line.Worker,
		})
	}
	td.sort()
	return td, nil
}

// stealDistance is the distance between a thief and its victim in the
// linear place ordering, the x-axis of steal-distance histograms: the
// paper's cluster is one switch, so hop count is uniform and index distance
// says how far from its home community a stolen task landed.
func stealDistance(thief, victim int) int {
	if thief < victim {
		return victim - thief
	}
	return thief - victim
}
