package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// manualClock is a settable test clock.
type manualClock struct{ now int64 }

func (c *manualClock) Now() int64 { return c.now }

func TestNilRecorderIsDisabledAndSafe(t *testing.T) {
	var r *Recorder
	r.Configure(4, 2, nil, VirtualNS)
	r.Record(0, 0, KindTaskStart, 1, 0, 0)
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if d := r.Dropped(); d != 0 {
		t.Fatalf("nil recorder Dropped = %d", d)
	}
	if td := r.Snapshot(); td != nil {
		t.Fatalf("nil recorder Snapshot = %v, want nil", td)
	}
}

func TestUnconfiguredRecorderDiscards(t *testing.T) {
	r := NewRecorder(RecorderOptions{})
	r.Record(0, 0, KindTaskStart, 1, 0, 0) // must not panic
	if r.Enabled() {
		t.Fatal("unconfigured recorder reports Enabled")
	}
	if td := r.Snapshot(); td != nil {
		t.Fatalf("unconfigured Snapshot = %v, want nil", td)
	}
}

func TestRecordOutOfRangeTrackIsIgnored(t *testing.T) {
	r := NewRecorder(RecorderOptions{TrackCapacity: 8})
	r.Configure(2, 2, &manualClock{}, VirtualNS)
	r.Record(5, 0, KindSpawn, 0, 0, 0)  // place out of range
	r.Record(-1, 0, KindSpawn, 0, 0, 0) // negative index
	if n := len(r.Snapshot().Events); n != 0 {
		t.Fatalf("out-of-range records landed: %d events", n)
	}
}

func TestRingDropsOldestAndCounts(t *testing.T) {
	clk := &manualClock{}
	r := NewRecorder(RecorderOptions{TrackCapacity: 4})
	r.Configure(1, 1, clk, VirtualNS)
	for i := 0; i < 7; i++ {
		clk.now = int64(i)
		r.Record(0, 0, KindSpawn, int32(i), 0, 0)
	}
	if d := r.Dropped(); d != 3 {
		t.Fatalf("Dropped = %d, want 3", d)
	}
	td := r.Snapshot()
	if td.Dropped != 3 {
		t.Fatalf("snapshot Dropped = %d, want 3", td.Dropped)
	}
	if len(td.Events) != 4 {
		t.Fatalf("kept %d events, want ring capacity 4", len(td.Events))
	}
	// The survivors are the newest four, oldest first.
	for i, ev := range td.Events {
		if want := int32(i + 3); ev.Task != want {
			t.Fatalf("event %d task = %d, want %d (drop-oldest order)", i, ev.Task, want)
		}
	}
}

func TestConfigureReusesAndResetsRings(t *testing.T) {
	clk := &manualClock{}
	r := NewRecorder(RecorderOptions{TrackCapacity: 4})
	r.Configure(1, 2, clk, VirtualNS)
	for i := 0; i < 6; i++ {
		r.Record(0, 0, KindSpawn, int32(i), 0, 0)
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	// Same shape: rings are kept but fully reset.
	r.Configure(1, 2, clk, VirtualNS)
	if r.Dropped() != 0 {
		t.Fatalf("Dropped after reconfigure = %d, want 0", r.Dropped())
	}
	if n := len(r.Snapshot().Events); n != 0 {
		t.Fatalf("reconfigured recorder still holds %d events", n)
	}
	r.Record(0, 1, KindSpawn, 9, 0, 0)
	if n := len(r.Snapshot().Events); n != 1 {
		t.Fatalf("recorder unusable after reuse: %d events", n)
	}
	// Different shape: tracks are rebuilt at the new dimensions.
	r.Configure(2, 3, clk, VirtualNS)
	r.Record(1, 2, KindSpawn, 1, 0, 0)
	td := r.Snapshot()
	if td.Places != 2 || td.WorkersPerPlace != 3 || len(td.Events) != 1 {
		t.Fatalf("reshape failed: %+v", td)
	}
}

func TestSnapshotSortsAcrossTracks(t *testing.T) {
	clk := &manualClock{}
	r := NewRecorder(RecorderOptions{TrackCapacity: 8})
	r.Configure(2, 2, clk, VirtualNS)
	// Record out of timestamp order across tracks.
	clk.now = 30
	r.Record(1, 1, KindSpawn, 3, 0, 0)
	clk.now = 10
	r.Record(0, 0, KindSpawn, 1, 0, 0)
	clk.now = 20
	r.Record(1, 0, KindSpawn, 2, 0, 0)
	td := r.Snapshot()
	for i := 1; i < len(td.Events); i++ {
		if td.Events[i].TS < td.Events[i-1].TS {
			t.Fatalf("snapshot not sorted: %v", td.Events)
		}
	}
	if td.Events[0].Task != 1 || td.Events[2].Task != 3 {
		t.Fatalf("unexpected order: %v", td.Events)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := KindTaskStart; k < numKinds; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no wire name", k)
		}
		back, err := ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
		if back != k {
			t.Fatalf("ParseKind(%q) = %d, want %d", name, back, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

// synthetic builds a small two-place trace with known task intervals:
// place 0 worker 0 busy [0,100), place 1 worker 0 busy [50,100).
func synthetic() *TraceData {
	clk := &manualClock{}
	r := NewRecorder(RecorderOptions{})
	r.Configure(2, 1, clk, VirtualNS)
	clk.now = 0
	r.Record(0, 0, KindTaskStart, 1, 0, 0)
	clk.now = 50
	r.Record(1, 0, KindTaskStart, 2, 1, 0)
	r.Record(1, 0, KindStealRemote, 2, 0, 25) // victim place 0, latency 25
	clk.now = 100
	r.Record(0, 0, KindTaskEnd, 1, 0, 0)
	r.Record(1, 0, KindTaskEnd, 2, 0, 0)
	return r.Snapshot()
}

func TestBusyFractionsFromEvents(t *testing.T) {
	td := synthetic()
	_, end := td.Span()
	if end != 100 {
		t.Fatalf("span end = %d, want 100", end)
	}
	got := td.BusyFractions()
	want := []float64{100, 50}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BusyFractions = %v, want %v", got, want)
	}
}

func TestTaskIntervalOrphanedEndUsesDur(t *testing.T) {
	clk := &manualClock{now: 80}
	r := NewRecorder(RecorderOptions{})
	r.Configure(1, 1, clk, VirtualNS)
	// End without a start (as after ring wraparound) carrying its own Dur.
	r.Record(0, 0, KindTaskEnd, 7, 0, 30)
	td := r.Snapshot()
	ivs := td.taskIntervals()
	if len(ivs) != 1 || ivs[0].start != 50 || ivs[0].end != 80 {
		t.Fatalf("orphaned-end interval = %+v, want [50,80)", ivs)
	}
}

func TestEventsJSONLRoundTrip(t *testing.T) {
	td := synthetic()
	var buf bytes.Buffer
	if err := td.WriteEvents(&buf); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	back, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if !reflect.DeepEqual(td, back) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", td, back)
	}
}

func TestReadEventsRejectsForeignInput(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader(`{"format":"something-else","version":1}` + "\n")); err == nil {
		t.Fatal("accepted a foreign format header")
	}
	if _, err := ReadEvents(strings.NewReader(`{"format":"distws-trace","version":99}` + "\n")); err == nil {
		t.Fatal("accepted an unsupported version")
	}
	if _, err := ReadEvents(strings.NewReader("not json")); err == nil {
		t.Fatal("accepted non-JSON input")
	}
}

func TestChromeTraceIsValidJSONWithNamedTracks(t *testing.T) {
	td := synthetic()
	var buf bytes.Buffer
	if err := td.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	threads := map[string]bool{}
	var complete int
	for _, ev := range evs {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				args := ev["args"].(map[string]any)
				threads[args["name"].(string)] = true
			}
		case "X":
			complete++
		}
	}
	if len(threads) != td.Places*td.WorkersPerPlace {
		t.Fatalf("named %d threads, want %d", len(threads), td.Places*td.WorkersPerPlace)
	}
	if !threads["place 1 worker 0"] {
		t.Fatalf("missing thread name, have %v", threads)
	}
	if complete != 2 {
		t.Fatalf("rendered %d complete events, want 2 task intervals", complete)
	}
}

func TestUtilizationCSV(t *testing.T) {
	td := synthetic()
	var buf bytes.Buffer
	if err := td.WriteUtilizationCSV(&buf, 2); err != nil {
		t.Fatalf("WriteUtilizationCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "bucket_start_ns,bucket_end_ns,place_0,place_1" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("got %d buckets, want 2: %q", len(lines)-1, lines)
	}
	// Bucket [0,50): place 0 fully busy, place 1 idle.
	if !strings.HasPrefix(lines[1], "0,50,100.000,0.000") {
		t.Fatalf("bucket 0 = %q", lines[1])
	}
	// Bucket [50,100): both fully busy.
	if !strings.HasPrefix(lines[2], "50,100,100.000,100.000") {
		t.Fatalf("bucket 1 = %q", lines[2])
	}
}

func TestWriteSummaryMentionsKeyLines(t *testing.T) {
	td := synthetic()
	var buf bytes.Buffer
	if err := td.WriteSummary(&buf); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"2 place(s) x 1 worker(s)",
		"remote 1",
		"steal distance",
		"d=1",
		"place busy fraction",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFormatUnknown(t *testing.T) {
	if err := synthetic().WriteFormat(&bytes.Buffer{}, "xml", 0); err == nil {
		t.Fatal("WriteFormat accepted an unknown format")
	}
}

func TestRecorderConcurrentRecordAndSnapshot(t *testing.T) {
	clk := &manualClock{}
	r := NewRecorder(RecorderOptions{TrackCapacity: 64})
	r.Configure(2, 2, clk, WallNS)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			r.Record(i%2, i%2, KindSpawn, int32(i), 0, 0)
		}
	}()
	// Live dumps while recording — must be race-free (run under -race).
	for i := 0; i < 50; i++ {
		r.Snapshot()
		r.Dropped()
	}
	<-done
}

func TestStealDistance(t *testing.T) {
	cases := []struct{ thief, victim, want int }{
		{0, 0, 0},
		{3, 1, 2},
		{1, 3, 2},
		{0, 15, 15},
	}
	for _, c := range cases {
		if got := stealDistance(c.thief, c.victim); got != c.want {
			t.Fatalf("stealDistance(%d, %d) = %d, want %d", c.thief, c.victim, got, c.want)
		}
	}
}
