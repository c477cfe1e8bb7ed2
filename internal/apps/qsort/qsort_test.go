package qsort

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func small() *App { return New(20_000, 7) }

func TestSequentialDeterministic(t *testing.T) {
	a, b := small().Sequential(), small().Sequential()
	if a != b {
		t.Fatalf("sequential checksum not deterministic: %x vs %x", a, b)
	}
}

func TestSequentialMatchesStdlibSort(t *testing.T) {
	a := small()
	data := a.gen()
	a.seqSort(data)
	want := small().gen()
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("element %d = %d, want %d", i, data[i], want[i])
		}
	}
}

// TestPartitionSplitsAroundPivot checks one segment and every segment
// of 3 to 8 keys drawn from 4 values: both halves are non-empty and no
// left key exceeds a right one. So split, which partitions only
// segments longer than the cutoff (at least 64), always shrinks both.
func TestPartitionSplitsAroundPivot(t *testing.T) {
	segs := [][]int64{{5, 3, 9, 1, 7, 2, 8}}
	for n := 3; n <= 8; n++ {
		for code := 0; code < 1<<(2*n); code++ {
			d := make([]int64, n)
			for i := range d {
				d[i] = int64(code >> (2 * i) & 3)
			}
			segs = append(segs, d)
		}
	}
	for _, d := range segs {
		in := slices.Clone(d)
		l, r := partition(d)
		if len(l) == 0 || len(r) == 0 || len(l)+len(r) != len(d) || slices.Max(l) > slices.Min(r) {
			t.Fatalf("partition(%v) = %v, %v", in, l, r)
		}
	}
}

// TestSplit checks the one recursion step of all three sorts on a
// segment of equal keys longer than the cutoff (it partitions down the
// middle), a segment of distinct keys that partitions, and a segment at
// the cutoff (sorted in place, no halves).
func TestSplit(t *testing.T) {
	a := small()
	c := a.seqCutoff
	equal := make([]int64, 2*c+1)
	for i := range equal {
		equal[i] = 42
	}
	if l, r, ok := a.split(equal); !ok || len(l) == 0 || len(r) == 0 || len(l)+len(r) != len(equal) {
		t.Fatalf("equal keys: split into %d and %d keys (ok %v), want two non-empty halves", len(l), len(r), ok)
	}

	distinct := make([]int64, 2*c)
	for i := range distinct {
		distinct[i] = int64((i * 7919) % len(distinct)) // a permutation of 0..2c-1
	}
	l, r, ok := a.split(distinct)
	if !ok || len(l) == 0 || len(r) == 0 || len(l)+len(r) != len(distinct) {
		t.Fatalf("distinct keys: split into %d and %d keys (ok %v)", len(l), len(r), ok)
	}
	if slices.Max(l) > slices.Min(r) {
		t.Fatalf("distinct keys: left max %d above right min %d", slices.Max(l), slices.Min(r))
	}

	leaf := make([]int64, c)
	for i := range leaf {
		leaf[i] = int64(c - i)
	}
	if l, r, ok := a.split(leaf); ok || l != nil || r != nil {
		t.Fatalf("segment at the cutoff: split into %d and %d keys (ok %v), want a leaf", len(l), len(r), ok)
	}
	if !slices.IsSorted(leaf) {
		t.Fatalf("segment at the cutoff was not sorted in place")
	}
}

// TestParallelMatchesSequential runs one App sequentially, in parallel
// under each policy and sequentially again: every checksum must match,
// and the keys and buckets every run copies must still equal fresh ones.
// A run that sorted them in place would leave the checksums as they are.
func TestParallelMatchesSequential(t *testing.T) {
	a := small()
	want := a.Sequential()
	for _, policy := range []sched.Kind{sched.X10WS, sched.DistWS, sched.DistWSNS} {
		rt, err := core.New(core.Config{
			Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
			Policy:  policy,
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Parallel(rt)
		rt.Shutdown()
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if got != want {
			t.Fatalf("%v: parallel checksum %x != sequential %x", policy, got, want)
		}
	}
	if got := a.Sequential(); got != want {
		t.Fatalf("second sequential %x != first %x", got, want)
	}
	if !slices.Equal(a.input(), a.gen()) {
		t.Fatalf("a run changed the shared input keys")
	}
	if !reflect.DeepEqual(a.bucketed(2), buckets(a.gen(), 2)) {
		t.Fatalf("a run changed the shared buckets")
	}
}

func TestTraceValidAndCalibrated(t *testing.T) {
	g, err := small().Trace(4)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if g.NumTasks() < 50 {
		t.Fatalf("trace too small: %d tasks", g.NumTasks())
	}
	if f := g.FlexibleFraction(); f <= 0 || f >= 1 {
		t.Fatalf("flexible fraction = %v, want in (0,1)", f)
	}
	// Calibration pins the mean flexible cost to Table I's 1.1 ms.
	mean := apps.MeanFlexibleCostNS(g)
	if mean < 1_000_000 || mean > 1_200_000 {
		t.Fatalf("mean flexible granularity = %dns, want ~1.1ms", mean)
	}
	// Roots are spread over the places.
	if len(g.Roots) != 4 {
		t.Fatalf("roots = %d, want 4", len(g.Roots))
	}
}

func TestTraceRunsInSimulator(t *testing.T) {
	g, err := small().Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := topology.Paper()
	cl.Places = 4
	cl.WorkersPerPlace = 2
	for _, policy := range []sched.Kind{sched.X10WS, sched.DistWS, sched.DistWSNS} {
		r, err := sim.Run(g, cl, policy, sim.Options{Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if r.Counters.TasksExecuted != int64(g.NumTasks()) {
			t.Fatalf("%v executed %d of %d", policy, r.Counters.TasksExecuted, g.NumTasks())
		}
	}
}

func TestChecksumDetectsUnsorted(t *testing.T) {
	sorted := []int64{1, 2, 3, 4}
	unsorted := []int64{1, 3, 2, 4}
	if checksum(sorted) == checksum(unsorted) {
		t.Fatalf("checksum should distinguish sorted from unsorted")
	}
}

func TestBucketsPartitionByRange(t *testing.T) {
	data := []int64{0, 1 << 61, (1 << 61) + 5, 1 << 60, (1 << 62) - 1}
	bks := buckets(data, 2)
	total := 0
	for p, b := range bks {
		total += len(b)
		width := (int64(1) << 62) / 2
		for _, v := range b {
			if got := int(v / width); got != p {
				t.Fatalf("value %d landed in bucket %d, want %d", v, p, got)
			}
		}
	}
	if total != len(data) {
		t.Fatalf("buckets lost elements: %d of %d", total, len(data))
	}
}

func TestBucketsAreSkewed(t *testing.T) {
	// The quadratic value transform concentrates keys in low buckets.
	a := small()
	bks := buckets(a.gen(), 8)
	if len(bks[0]) < 2*len(bks[7])+1 {
		t.Fatalf("bucket sizes not skewed: first=%d last=%d", len(bks[0]), len(bks[7]))
	}
}
