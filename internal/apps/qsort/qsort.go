// Package qsort implements the Cowichan Quicksort benchmark (paper §VII:
// sorting 100M elements). The parallel version is a task-parallel
// quicksort over a block-distributed array: every recursive segment is a
// task homed at the place owning the segment's start, and segments large
// enough to amortize a migration are annotated locality-flexible — they
// encapsulate their data (the sub-array) and keep a thief busy, matching
// the paper's task model (§II).
package qsort

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/task"
	"distws/internal/trace"
)

// App configures one Quicksort instance.
type App struct {
	n         int   // elements (paper scale: 100_000_000)
	seed      int64 // drives the input distribution
	seqCutoff int   // segment size at or below which a segment is sorted sequentially
	flexMin   int   // minimum segment size annotated @AnyPlaceTask

	keys apps.Input[[]int64] // gen's keys; every run sorts a copy

	mu     sync.Mutex
	placed map[int][][]int64 // the keys' buckets, by place count
}

// granularityNS is the Table I calibration target: 1.1 ms.
const granularityNS = 1_100_000

// New returns a Quicksort app over n elements.
func New(n int, seed int64) *App {
	cutoff := max(n/2048, 64)
	return &App{n: n, seed: seed, seqCutoff: cutoff, flexMin: 4 * cutoff}
}

// Name implements apps.App.
func (a *App) Name() string { return "quicksort" }

// gen produces the deterministic input array. The value distribution is
// deliberately skewed (quadratic transform): with range partitioning over
// places, low-range places own far more elements than high-range ones —
// the static imbalance the Cowichan distributed sort exhibits on
// non-uniform keys.
func (a *App) gen() []int64 {
	rng := rand.New(rand.NewSource(a.seed))
	data := make([]int64, a.n)
	for i := range data {
		u := rng.Float64()
		data[i] = int64(u * u * float64(1<<62))
	}
	return data
}

// input returns the input keys, generating them on first use.
func (a *App) input() []int64 { return a.keys.Get(a.gen) }

// bucketed returns the input keys' buckets for places places, bucketing
// them on first use.
func (a *App) bucketed(places int) [][]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	bks, ok := a.placed[places]
	if !ok {
		bks = buckets(a.input(), places)
		if a.placed == nil {
			a.placed = map[int][][]int64{}
		}
		a.placed[places] = bks
	}
	return bks
}

// buckets partitions data by value range into places buckets (bucket p
// holds values in [p, p+1)·2^62/places), preserving input order within a
// bucket. Concatenating the sorted buckets yields the sorted array.
func buckets(data []int64, places int) [][]int64 {
	width := (int64(1) << 62) / int64(places)
	bucket := func(v int64) int { return min(max(int(v/width), 0), places-1) }
	sizes := make([]int, places)
	for _, v := range data {
		sizes[bucket(v)]++
	}
	out := make([][]int64, places)
	for p, n := range sizes {
		out[p] = make([]int64, 0, n)
	}
	for _, v := range data {
		p := bucket(v)
		out[p] = append(out[p], v)
	}
	return out
}

// checksum hashes a sorted array: length, a sample of elements, and a
// sortedness witness.
func checksum(data []int64) uint64 {
	h := apps.NewFnv()
	h.Add(uint64(len(data)))
	step := len(data)/1024 + 1
	for i := 0; i < len(data); i += step {
		h.Add(uint64(data[i]))
	}
	for i := 1; i < len(data); i++ {
		if data[i-1] > data[i] {
			h.Add(0xdead) // poison the checksum if unsorted
		}
	}
	return h.Sum()
}

// medianOfThree picks a deterministic pivot.
func medianOfThree(d []int64) int64 {
	a, b, c := d[0], d[len(d)/2], d[len(d)-1]
	switch {
	case (a <= b && b <= c) || (c <= b && b <= a):
		return b
	case (b <= a && a <= c) || (c <= a && a <= b):
		return a
	default:
		return c
	}
}

// partition splits d around a median-of-three pivot, returning the two
// halves (Hoare-style). For len(d) >= 3 both are non-empty, all keys
// equal included: the scans stop at keys equal to the pivot and swap
// them, so equal keys split down the middle.
func partition(d []int64) (left, right []int64) {
	pivot := medianOfThree(d)
	i, j := 0, len(d)-1
	for {
		for d[i] < pivot {
			i++
		}
		for d[j] > pivot {
			j--
		}
		if i >= j {
			break
		}
		d[i], d[j] = d[j], d[i]
		i++
		j--
	}
	return d[:j+1], d[j+1:]
}

// split is the one step of the recursion every sort runs: a segment at
// or below the cutoff is sorted in place, and split returns ok false;
// a longer one is partitioned into its two halves, both shorter.
func (a *App) split(seg []int64) (l, r []int64, ok bool) {
	if len(seg) <= a.seqCutoff {
		slices.Sort(seg)
		return nil, nil, false
	}
	l, r = partition(seg)
	return l, r, true
}

// seqSort sorts d with split, recursing into the shorter half and
// looping on the longer.
func (a *App) seqSort(d []int64) {
	for {
		l, r, ok := a.split(d)
		if !ok {
			return
		}
		if len(l) < len(r) {
			a.seqSort(l)
			d = r
		} else {
			a.seqSort(r)
			d = l
		}
	}
}

// Sequential implements apps.App.
func (a *App) Sequential() uint64 {
	data := slices.Clone(a.input())
	a.seqSort(data)
	return checksum(data)
}

// Parallel implements apps.App: a range-partitioned task-parallel sort.
// Each place owns a key range (bucket) and sorts it with recursive tasks
// (big segments flexible). The run sorts a copy of the buckets laid end
// to end in one array, which is then the sorted result.
func (a *App) Parallel(rt *core.Runtime) (uint64, error) {
	places := rt.Places()
	data := make([]int64, a.n)
	bks := make([][]int64, places)
	off := 0
	for p, b := range a.bucketed(places) {
		bks[p] = data[off : off+copy(data[off:], b)]
		off += len(b)
	}
	err := rt.Run(func(ctx *core.Ctx) {
		ctx.Finish(func(c *core.Ctx) {
			for p := 0; p < places; p++ {
				seg := bks[p]
				if len(seg) == 0 {
					continue
				}
				home := p
				c.AsyncLoc(home, a.locality(len(seg)), func(cc *core.Ctx) {
					a.sortTask(cc, seg)
				})
			}
		})
	})
	if err != nil {
		return 0, fmt.Errorf("qsort: %w", err)
	}
	return checksum(data), nil
}

// sortTask recursively sorts seg, spawning a subtask for the left half.
func (a *App) sortTask(ctx *core.Ctx, seg []int64) {
	l, r, ok := a.split(seg)
	if !ok {
		return
	}
	ctx.Finish(func(c *core.Ctx) {
		c.AsyncLoc(c.Place(), a.locality(len(l)), func(cc *core.Ctx) {
			a.sortTask(cc, l)
		})
		a.sortTask(c, r)
	})
}

// locality classifies a segment task per the paper's model: coarse
// segments encapsulate their data and are flexible.
func (a *App) locality(segLen int) task.Locality {
	if segLen >= a.flexMin {
		return task.Locality{
			Class:          task.Flexible,
			MigrationBytes: 8 * segLen,
		}
	}
	return task.SensitiveLocality
}

// Trace implements apps.App: it replays the real recursion on the real
// input, recording one task per segment with cost proportional to the
// partition work (and n·log n at the leaves), then calibrates the mean
// flexible granularity to Table I (1.1 ms).
func (a *App) Trace(places int) (*trace.Graph, error) {
	bks := buckets(a.input(), places) // fresh buckets: traceRec sorts them
	b := trace.NewBuilder(a.Name())
	for p := 0; p < places; p++ {
		seg := bks[p]
		if len(seg) == 0 {
			continue
		}
		root := b.Root(a.traceTask(len(seg), p, p, trace.HomeFixed))
		a.traceRec(b, root, seg, p)
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("qsort: %w", err)
	}
	if _, err := apps.CalibrateFlexibleGranularity(g, granularityNS); err != nil {
		return nil, fmt.Errorf("qsort: %w", err)
	}
	return g, nil
}

// traceRec splits seg exactly like the parallel code and records the
// child tasks.
func (a *App) traceRec(b *trace.Builder, parent int, seg []int64, region int) {
	l, r, ok := a.split(seg)
	if !ok {
		return
	}
	lt := b.Child(parent, a.traceTask(len(l), 0, region, trace.HomeInherit))
	a.traceRec(b, lt, l, region)
	rt := b.Child(parent, a.traceTask(len(r), 0, region, trace.HomeInherit))
	a.traceRec(b, rt, r, region)
}

// traceTask models one segment task's costs and communication; region
// namespaces the footprint blocks by the owning data block.
func (a *App) traceTask(segLen, home, region int, mode trace.HomeMode) trace.Task {
	cost := int64(segLen) // one partition pass
	if segLen <= a.seqCutoff {
		lg := math.Log2(float64(segLen) + 2)
		cost = int64(float64(segLen) * lg) // leaf sort
	}
	t := trace.Task{
		HomeMode: mode,
		Home:     home,
		CostNS:   cost,
		Flexible: segLen >= a.flexMin,
		MigBytes: 8 * segLen,
		// Distributed-array traffic: the partition streams the segment
		// through the network layer in ~1 KiB chunks (Table III's
		// millions of messages for quicksort at 100M elements).
		BaseMsgs:  segLen / 128,
		BaseBytes: 8 * segLen / 128,
		Blocks:    segBlocks(segLen, region),
		BlockReps: 4,
	}
	if t.Flexible {
		// Writing the sorted segment back to the owner: page-sized chunks.
		t.MigMsgs = segLen / 4096
	}
	return t
}

// segBlocks gives a coarse footprint: one block per 512 elements, capped,
// namespaced by the data region the segment belongs to.
func segBlocks(segLen, region int) []uint64 {
	n := segLen / 512
	if n > 64 {
		n = 64
	}
	if n == 0 {
		n = 1
	}
	blocks := make([]uint64, n)
	for i := range blocks {
		blocks[i] = uint64(region)<<32 | uint64(i)
	}
	return blocks
}

var _ apps.App = (*App)(nil)
