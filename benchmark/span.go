package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"distws/internal/obs"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public functions. Times are nanoseconds since the tracer's
// epoch; Parent is the span that caused this one (-1 for a root) and Req
// groups the spans of one request (a pass or a job).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: every method is a no-op, so workloads call it
// unconditionally and the end-to-end run pays one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the tracer clock (0 when tracing is off).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(layer, name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	return t.add(layer, name, parent, req, t.now(), 0)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose times the caller already holds.
func (t *tracer) add(layer, name string, parent int32, req, start, end int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Req: req, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (concurrent calls) and may stick out of the parent (a reply that
// lands after the caller gave up); overlap is counted once and coverage is
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[int32(i)]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(spans[c].Start, edge), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// maxSpansWritten caps the span dump: a service run records three spans
// per job, and the first hundred thousand describe the run as well as
// all of them.
const maxSpansWritten = 100_000

// writeSpans dumps the spans as JSON lines, a header line first.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := min(len(spans), maxSpansWritten)
	fmt.Fprintf(w, "{\"spans_recorded\":%d,\"spans_written\":%d,\"clock\":\"ns since trace start\"}\n", len(spans), n)
	enc := json.NewEncoder(w)
	for _, s := range spans[:n] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coreTrace is what one traced runtime pass yields from the obs.Recorder
// the pass ran with.
type coreTrace struct {
	taskSelfNS int64   // Σ over activities of run time minus nested activities
	remoteNS   []int64 // acquisition latency of each successful remote steal
	localNS    []int64 // task end → successful local steal on the same worker
	dropped    int64
}

// analyzeCore turns a recorder snapshot into task spans per worker track
// and the steal latencies. An activity that blocks in a nested Finish runs
// other activities on the same worker while it waits, so task intervals
// nest; self time removes the nested part (what is left of a waiting
// activity is its own body plus the time it found nothing to help with).
func analyzeCore(td *obs.TraceData) coreTrace {
	var out coreTrace
	if td == nil {
		return out
	}
	out.dropped = td.Dropped
	type key struct{ place, worker int32 }
	open := make(map[key][]int32) // per track: stack of open span ids
	lastEnd := make(map[key]int64)
	var spans []span
	for _, ev := range td.Events {
		k := key{ev.Place, ev.Worker}
		switch ev.Kind {
		case obs.KindTaskStart:
			parent := int32(-1)
			if st := open[k]; len(st) > 0 {
				parent = st[len(st)-1]
			}
			id := int32(len(spans))
			spans = append(spans, span{ID: id, Parent: parent, Layer: "core", Name: "activity", Start: ev.TS, End: ev.TS})
			open[k] = append(open[k], id)
			delete(lastEnd, k)
		case obs.KindTaskEnd:
			if st := open[k]; len(st) > 0 {
				spans[st[len(st)-1]].End = ev.TS
				open[k] = st[:len(st)-1]
			}
			lastEnd[k] = ev.TS
		case obs.KindStealRemote:
			out.remoteNS = append(out.remoteNS, ev.Dur)
			delete(lastEnd, k)
		case obs.KindStealLocal:
			if t, ok := lastEnd[k]; ok {
				out.localNS = append(out.localNS, ev.TS-t)
			}
			delete(lastEnd, k)
		case obs.KindStealFail, obs.KindProbe, obs.KindTimeout:
			// The worker searched elsewhere between the task end and the
			// steal, so the gap is not one steal's latency. (Spawns and
			// arrivals are recorded on worker 0's track by whoever caused
			// them and say nothing about this worker.)
			delete(lastEnd, k)
		}
	}
	// Activities still open when the ring was snapshotted (overwritten
	// ends) have End == Start and contribute nothing.
	for _, d := range selfTimes(spans) {
		out.taskSelfNS += d
	}
	return out
}
