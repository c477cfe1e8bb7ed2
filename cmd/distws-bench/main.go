// Command distws-bench measures the experiment pipeline's two hot paths —
// raw simulator throughput and full-evaluation wall clock — and writes the
// results as machine-readable JSON. It exists so every perf-affecting PR
// can record a before/after point on the same axes (`make bench` refreshes
// BENCH_sim.json, the checked-in baseline). BENCH_sim.json is overwritten,
// which is how a 6% simulator slip once went unremarked, so every -out run
// also appends its headline numbers as one line to the append-only
// BENCH_history.jsonl beside the output file:
//
//	distws-bench                       # print JSON to stdout
//	distws-bench -out BENCH_sim.json   # refresh the baseline, append to BENCH_history.jsonl
package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"distws/internal/apps/suite"
	"distws/internal/cliutil"
	"distws/internal/comm"
	"distws/internal/dag"
	"distws/internal/deque"
	"distws/internal/expt"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/sim"
)

// simBench is one testing.Benchmark result in JSON form.
type simBench struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerOp  int64   `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// report is the full BENCH_sim.json document.
type report struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Scale      int    `json:"scale"`

	// Simulator is the allocation/throughput profile of one DMG DistWS run
	// at 128 virtual workers (the BenchmarkSimulator128Workers shape).
	Simulator simBench `json:"simulator"`

	// SimulatorTraced is the same run with an obs.Recorder attached, and
	// TracingOverheadPct the cost of recording relative to Simulator —
	// the median of the per-round ns/op ratios from the interleaved
	// sampling (see measurePhases/medianOverheadPct). The acceptance
	// budget lives on the recorder-off path (Simulator must not regress);
	// the traced numbers document what turning tracing on costs.
	SimulatorTraced    simBench `json:"simulator_traced"`
	TracingOverheadPct float64  `json:"tracing_overhead_pct"`

	// SimulatorAdaptive is the same run under the adaptive policy (a
	// fresh controller per iteration: interning, per-completion
	// ObserveExec, per-probe ObserveSteal, controller-ordered victim
	// sweeps), and AdaptiveOverheadPct its cost relative to Simulator,
	// estimated like TracingOverheadPct. The budget mirrors tracing: the
	// controller-off path must not regress; these numbers document what
	// `-policy adaptive` costs.
	SimulatorAdaptive   simBench `json:"simulator_adaptive"`
	AdaptiveOverheadPct float64  `json:"adaptive_overhead_pct"`

	// SuiteSequentialMS / SuiteParallelMS are wall-clock milliseconds for
	// regenerating every simulator-driven exhibit with Workers=1 and with
	// the GOMAXPROCS pool.
	SuiteSequentialMS float64 `json:"suite_sequential_ms"`
	SuiteParallelMS   float64 `json:"suite_parallel_ms"`

	// WireCodec compares the hand-rolled binary frame codec the TCP
	// transports speak (internal/comm wire.go) against the gob stream it
	// replaced, per message over a representative mix (an empty steal
	// probe and a 64-byte spawn). The codec must hold a >= 2x advantage on
	// at least one axis.
	WireCodec codecBench `json:"wire_codec"`

	// Contention is the shared-queue contention study
	// (expt.ContentionStudy): fine-grained flexible tasks homed at one
	// place, the lock simulated (sim.Options.LockContention), one point
	// per worker count. StealsPerSec is tasks acquired by thieves per
	// virtual second under each deque kind. The acceptance gate this file
	// records: relaxed (fence-free + receiver-initiated) holds at least
	// 2x the mutex deque's steal throughput at 512 workers
	// (TestContentionStudyRelaxedWins pins the same bound).
	Contention128  contentionPoint `json:"contention_128_workers"`
	Contention256  contentionPoint `json:"contention_256_workers"`
	Contention512  contentionPoint `json:"contention_512_workers"`
	Contention1024 contentionPoint `json:"contention_1024_workers"`

	// DAGCholesky/DAGLu/DAGPipeline are the dataflow study
	// (expt.DAGStudy): tiled linear-algebra graphs released through the
	// dependency tracker, one point per app comparing locality-blind and
	// data-aware placement. The acceptance gate this file records:
	// data-aware beats blind on Cholesky on both makespan and migrated
	// bytes at seed 1 (TestDAGStudyDataAwareWinsOnCholesky pins it).
	DAGCholesky dagPoint `json:"dag_cholesky"`
	DAGLu       dagPoint `json:"dag_lu"`
	DAGPipeline dagPoint `json:"dag_pipeline"`
}

// historyFile is the append-only ledger kept beside the -out file.
const historyFile = "BENCH_history.jsonl"

// historyLine is one run's headline numbers in BENCH_history.jsonl: the
// simulator hot path (the Simulator128Workers shape) and what tracing and
// the adaptive policy cost on top of it.
type historyLine struct {
	Date                string  `json:"date"`
	GoVersion           string  `json:"go_version"`
	EventsPerSec        float64 `json:"events_per_sec"`
	NsPerEvent          float64 `json:"ns_per_event"`
	AllocsPerRun        int64   `json:"allocs_per_run"`
	TracingOverheadPct  float64 `json:"tracing_overhead_pct"`
	AdaptiveOverheadPct float64 `json:"adaptive_overhead_pct"`
}

// appendHistory appends rep's headline numbers to path as one JSON line,
// creating the file if need be and never touching earlier lines.
func appendHistory(path string, rep report, now time.Time) (err error) {
	line := historyLine{
		Date:                now.UTC().Format(time.RFC3339),
		GoVersion:           rep.GoVersion,
		EventsPerSec:        rep.Simulator.EventsPerSec,
		AllocsPerRun:        rep.Simulator.AllocsPerOp,
		TracingOverheadPct:  rep.TracingOverheadPct,
		AdaptiveOverheadPct: rep.AdaptiveOverheadPct,
	}
	if rep.Simulator.EventsPerOp > 0 {
		line.NsPerEvent = float64(rep.Simulator.NsPerOp) / float64(rep.Simulator.EventsPerOp)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(append(data, '\n'))
	return err
}

// dagPoint is one dataflow app's blind-versus-aware comparison in
// BENCH_sim.json.
type dagPoint struct {
	BlindMakespanMS    float64 `json:"blind_makespan_ms"`
	AwareMakespanMS    float64 `json:"aware_makespan_ms"`
	BlindMigratedBytes int64   `json:"blind_migrated_bytes"`
	AwareMigratedBytes int64   `json:"aware_migrated_bytes"`
	AwareSpeedup       float64 `json:"aware_speedup"`
	BytesSavedPct      float64 `json:"bytes_saved_pct"`
}

// contentionPoint is one worker count of the contention study in
// BENCH_sim.json.
type contentionPoint struct {
	MutexStealsPerSec    float64 `json:"mutex_steals_per_sec"`
	ChaseLevStealsPerSec float64 `json:"chaselev_steals_per_sec"`
	RelaxedStealsPerSec  float64 `json:"relaxed_steals_per_sec"`
	RelaxedOverMutex     float64 `json:"relaxed_over_mutex"`
}

// codecBench is the binary-codec-vs-gob comparison in BENCH_sim.json.
type codecBench struct {
	WireNsPerMsg    int64   `json:"wire_ns_per_msg"`
	WireBytesPerMsg int64   `json:"wire_bytes_per_msg"`
	GobNsPerMsg     int64   `json:"gob_ns_per_msg"`
	GobBytesPerMsg  int64   `json:"gob_bytes_per_msg"`
	NsRatio         float64 `json:"gob_over_wire_ns"`
	BytesRatio      float64 `json:"gob_over_wire_bytes"`
}

// codecMessages is the message mix both codecs are measured over: the
// empty steal probe that dominates control traffic and a small spawn.
func codecMessages() []comm.Message {
	return []comm.Message{
		{Kind: comm.KindStealReq, From: 3, To: 7, Seq: 42},
		{Kind: comm.KindSpawn, From: 0, To: 5, Seq: 99, Payload: bytes.Repeat([]byte{0xAB}, 64)},
	}
}

// benchCodec measures encode+decode round trips per message for the wire
// codec and for a steady-state gob stream (one encoder/decoder pair, type
// descriptors amortized — the old transport's shape).
func benchCodec() (codecBench, error) {
	msgs := codecMessages()
	var cb codecBench

	var wireBytes int
	for _, m := range msgs {
		wireBytes += comm.FrameLen(m)
	}
	cb.WireBytesPerMsg = int64(wireBytes / len(msgs))

	wr := testing.Benchmark(func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			m := msgs[i%len(msgs)]
			buf = comm.AppendFrame(buf[:0], m)
			if _, _, err := comm.DecodeFrame(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	cb.WireNsPerMsg = wr.NsPerOp()

	// Gob steady-state byte cost: stream many messages through one encoder
	// and take the mean, so the one-time type descriptor is amortized the
	// way a long-lived connection would amortize it.
	const stream = 1000
	var gobBuf bytes.Buffer
	enc := gob.NewEncoder(&gobBuf)
	for i := 0; i < stream; i++ {
		if err := enc.Encode(msgs[i%len(msgs)]); err != nil {
			return cb, err
		}
	}
	cb.GobBytesPerMsg = int64(gobBuf.Len() / stream)

	gr := testing.Benchmark(func(b *testing.B) {
		var buf bytes.Buffer
		e := gob.NewEncoder(&buf)
		d := gob.NewDecoder(&buf)
		var m comm.Message
		for i := 0; i < b.N; i++ {
			if err := e.Encode(msgs[i%len(msgs)]); err != nil {
				b.Fatal(err)
			}
			if err := d.Decode(&m); err != nil {
				b.Fatal(err)
			}
		}
	})
	cb.GobNsPerMsg = gr.NsPerOp()

	if cb.WireNsPerMsg > 0 {
		cb.NsRatio = float64(cb.GobNsPerMsg) / float64(cb.WireNsPerMsg)
	}
	if cb.WireBytesPerMsg > 0 {
		cb.BytesRatio = float64(cb.GobBytesPerMsg) / float64(cb.WireBytesPerMsg)
	}
	return cb, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distws-bench:", err)
		os.Exit(1)
	}
}

// measureReps is how many rounds the hot-path phases are sampled.
const measureReps = 5

// measurePhases benchmarks the given phases round-robin for measureReps
// rounds — round r runs phase 0, then phase 1, ... before round r+1
// begins — and returns each phase's best (lowest ns/op) result. A single
// testing.Benchmark invocation is one noisy sample on a shared host;
// interference (scheduler preemption, a neighbour's cache pressure) is
// strictly additive, so the minimum across rounds is the tightest
// estimate of a phase's own cost. Each sample starts from a collected
// heap so no phase pays another's GC debt.
func measurePhases(fns ...func(b *testing.B)) []testing.BenchmarkResult {
	best := make([]testing.BenchmarkResult, len(fns))
	for rep := 0; rep < measureReps; rep++ {
		for pi, fn := range fns {
			runtime.GC()
			r := testing.Benchmark(fn)
			if rep == 0 || r.NsPerOp() < best[pi].NsPerOp() {
				best[pi] = r
			}
		}
	}
	return best
}

// pairAlternations and pairReps size the paired overhead sampler: one
// rep strictly alternates pairAlternations base/phase run pairs, and the
// reported overhead is the median across pairReps reps.
const (
	pairAlternations = 120
	pairReps         = 7
)

// pairedOverheadPct estimates how much slower phase is than base, in
// percent. The overhead metrics divide two measurements, which makes
// them far more interference-sensitive than the ns/op numbers above: on
// a shared host the available CPU drifts on roughly the timescale of one
// testing.Benchmark sample, so dividing two such samples — even adjacent
// ones — once reported a 27% adaptive overhead whose true cost was under
// 10%. Alternating single runs instead exposes both sides to
// near-identical interference; each rep compares the two sides' summed
// times, and the median across reps discards the reps a load spike still
// managed to split unevenly.
//
// The order within a pair flips every iteration (base–phase, then
// phase–base). This is load-bearing: at this workload's allocation rate
// the garbage collector fires once every two runs, and with a fixed
// order that period aliases exactly onto the pair so one side absorbs
// every GC cycle — a fixed-order null experiment (base against itself)
// read a stable −16%. With the flip the null reads ≈0 and
// swapped-operand runs agree with forward ones.
func pairedOverheadPct(base, phase func() error) (float64, error) {
	// Warm both paths so neither side's first-run costs land in rep 0.
	if err := base(); err != nil {
		return 0, err
	}
	if err := phase(); err != nil {
		return 0, err
	}
	ratios := make([]float64, 0, pairReps)
	for rep := 0; rep < pairReps; rep++ {
		runtime.GC()
		var tb, tp time.Duration
		for i := 0; i < pairAlternations; i++ {
			first, second := base, phase
			if i%2 == 1 {
				first, second = phase, base
			}
			t0 := time.Now()
			if err := first(); err != nil {
				return 0, err
			}
			t1 := time.Now()
			if err := second(); err != nil {
				return 0, err
			}
			d1, d2 := t1.Sub(t0), time.Since(t1)
			if i%2 == 1 {
				d1, d2 = d2, d1
			}
			tb += d1
			tp += d2
		}
		ratios = append(ratios, 100*float64(tp-tb)/float64(tb))
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], nil
}

func run() error {
	var (
		out   = flag.String("out", "", "write JSON to `file` (default stdout) and append one summary line to "+historyFile+" beside it")
		seed  = flag.Int64("seed", 1, "workload and scheduler seed")
		scale = flag.Int("scale", 1, "workload scale multiplier")
	)
	diag := cliutil.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if cliutil.VersionRequested() {
		cliutil.PrintVersion(os.Stdout, "distws-bench")
		return nil
	}

	if err := diag.Start(); err != nil {
		return err
	}
	defer diag.Stop()

	rep := report{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Scale:      *scale,
	}

	// Simulator hot path: DMG under DistWS at the full 16×8 cluster.
	r := expt.New(suite.Scale(*scale), *seed)
	app, err := suite.ByName("dmg", suite.Scale(*scale), *seed)
	if err != nil {
		return err
	}
	g, err := r.Trace(app, r.Cluster.Places)
	if err != nil {
		return err
	}
	// Warm-up: the first measured benchmark otherwise absorbs one-time
	// process costs (page faults, branch predictor, allocator growth) and
	// the overhead percentages below would compare a cold baseline
	// against warm variants.
	if _, err := sim.Run(g, r.Cluster, sched.DistWS, sim.Options{Seed: *seed}); err != nil {
		return err
	}
	// The three phases — plain, traced, adaptive — are sampled
	// interleaved via measurePhases for their ns/op and allocation
	// profiles; the overhead percentages come from the paired sampler
	// below instead (see pairedOverheadPct for why). One recorder across
	// the traced phase's iterations: Configure reuses its rings for
	// repeated same-shape runs, so that phase measures steady-state
	// recording cost, with the one-time ring allocation amortized like
	// any warm-up.
	var events, runs int64
	rec := obs.NewRecorder(obs.RecorderOptions{})
	best := measurePhases(
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(g, r.Cluster, sched.DistWS, sim.Options{Seed: *seed})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
				runs++
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(g, r.Cluster, sched.DistWS, sim.Options{Seed: *seed, Recorder: rec}); err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(g, r.Cluster, sched.Adaptive, sim.Options{Seed: *seed}); err != nil {
					b.Fatal(err)
				}
			}
		},
	)
	br, bt, ba := best[0], best[1], best[2]
	rep.Simulator = simBench{
		Name:        "Simulator128Workers/dmg/DistWS",
		Iterations:  br.N,
		NsPerOp:     br.NsPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
	if runs > 0 {
		rep.Simulator.EventsPerOp = events / runs
		if ns := br.NsPerOp(); ns > 0 {
			rep.Simulator.EventsPerSec = float64(rep.Simulator.EventsPerOp) / (float64(ns) / 1e9)
		}
	}

	rep.SimulatorTraced = simBench{
		Name:        "Simulator128Workers/dmg/DistWS/traced",
		Iterations:  bt.N,
		NsPerOp:     bt.NsPerOp(),
		AllocsPerOp: bt.AllocsPerOp(),
		BytesPerOp:  bt.AllocedBytesPerOp(),
	}
	rep.SimulatorAdaptive = simBench{
		Name:        "Simulator128Workers/dmg/Adaptive",
		Iterations:  ba.N,
		NsPerOp:     ba.NsPerOp(),
		AllocsPerOp: ba.AllocsPerOp(),
		BytesPerOp:  ba.AllocedBytesPerOp(),
	}
	// Overhead ratios from the paired sampler (see pairedOverheadPct).
	baseRun := func() error {
		_, err := sim.Run(g, r.Cluster, sched.DistWS, sim.Options{Seed: *seed})
		return err
	}
	rep.TracingOverheadPct, err = pairedOverheadPct(baseRun, func() error {
		_, err := sim.Run(g, r.Cluster, sched.DistWS, sim.Options{Seed: *seed, Recorder: rec})
		return err
	})
	if err != nil {
		return err
	}
	rep.AdaptiveOverheadPct, err = pairedOverheadPct(baseRun, func() error {
		_, err := sim.Run(g, r.Cluster, sched.Adaptive, sim.Options{Seed: *seed})
		return err
	})
	if err != nil {
		return err
	}

	// Full-evaluation wall clock, sequential then parallel, on fresh
	// runners (each generates its own traces so the two are comparable).
	seqMS, err := timeSuite(*scale, *seed, 1)
	if err != nil {
		return err
	}
	parMS, err := timeSuite(*scale, *seed, 0)
	if err != nil {
		return err
	}
	rep.SuiteSequentialMS = seqMS
	rep.SuiteParallelMS = parMS

	if rep.WireCodec, err = benchCodec(); err != nil {
		return err
	}

	// Shared-queue contention study: virtual time, so one deterministic
	// pass per (worker count, kind) cell is the measurement.
	rows, err := r.ContentionStudy()
	if err != nil {
		return err
	}
	for _, row := range rows {
		pt := contentionPoint{
			MutexStealsPerSec:    row.Cell(deque.KindMutex).StealThroughput,
			ChaseLevStealsPerSec: row.Cell(deque.KindChaseLev).StealThroughput,
			RelaxedStealsPerSec:  row.Cell(deque.KindRelaxed).StealThroughput,
			RelaxedOverMutex:     row.RelaxedOverMutex,
		}
		switch row.Workers {
		case 128:
			rep.Contention128 = pt
		case 256:
			rep.Contention256 = pt
		case 512:
			rep.Contention512 = pt
		case 1024:
			rep.Contention1024 = pt
		}
	}

	// Dataflow study: also virtual time, one deterministic pass per
	// (app, placement policy) cell.
	dagRows, err := r.DAGStudy()
	if err != nil {
		return err
	}
	for _, row := range dagRows {
		blind, aware := row.Cell(dag.PolicyBlind), row.Cell(dag.PolicyDataAware)
		pt := dagPoint{
			BlindMakespanMS:    blind.MakespanMS,
			AwareMakespanMS:    aware.MakespanMS,
			BlindMigratedBytes: blind.MigratedBytes,
			AwareMigratedBytes: aware.MigratedBytes,
			AwareSpeedup:       row.AwareSpeedup,
			BytesSavedPct:      row.BytesSaved,
		}
		switch row.App {
		case "cholesky":
			rep.DAGCholesky = pt
		case "lu":
			rep.DAGLu = pt
		case "pipeline":
			rep.DAGPipeline = pt
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		if err := appendHistory(filepath.Join(filepath.Dir(*out), historyFile), rep, time.Now()); err != nil {
			return err
		}
	}
	return diag.Stop()
}

// timeSuite regenerates every simulator-driven exhibit once and returns
// the elapsed wall clock in milliseconds.
func timeSuite(scale int, seed int64, workers int) (float64, error) {
	r := expt.New(suite.Scale(scale), seed)
	r.Workers = workers
	start := time.Now()
	if _, err := r.Fig3(); err != nil {
		return 0, err
	}
	if _, err := r.Fig5(nil); err != nil {
		return 0, err
	}
	if _, err := r.Table1(); err != nil {
		return 0, err
	}
	if _, err := r.Table2(); err != nil {
		return 0, err
	}
	if _, err := r.Table3(); err != nil {
		return 0, err
	}
	if _, err := r.Fig6(); err != nil {
		return 0, err
	}
	if _, err := r.Fig7(); err != nil {
		return 0, err
	}
	if _, err := r.GranularityStudy(); err != nil {
		return 0, err
	}
	if _, err := r.UTSStudy(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6, nil
}
