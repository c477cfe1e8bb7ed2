// Package apps defines the benchmark application suite of the paper's
// evaluation (§VII): four Cowichan problems (Quicksort, Turing Ring,
// k-Means, n-Body) and three Lonestar problems (Agglomerative clustering,
// Delaunay mesh generation, Delaunay mesh refinement), plus the five
// fine-grained micro-applications of the granularity study (§VIII-Q2) and
// Unbalanced Tree Search (§X).
//
// Every application is a Model: a trace generator that emits its task
// graph (a trace.Graph) for the cluster simulator. An App adds what the
// real runtime (internal/core) runs: a reference sequential implementation
// (checksummed) and a parallel implementation whose result must match it;
// its trace runs the real algorithm instrumented at task boundaries. The
// micro apps are models only.
package apps

import (
	"fmt"
	"math"
	"sync"

	"distws/internal/core"
	"distws/internal/trace"
)

// Model is one application as the experiments and the simulator see it.
type Model interface {
	// Name returns the short name used in tables ("quicksort", "dmg", ...).
	Name() string
	// Trace generates the simulator task graph for a cluster of places
	// places. The graph reflects the real algorithm's task structure and
	// work distribution at the app's configured scale.
	Trace(places int) (*trace.Graph, error)
}

// App is one benchmark application that also runs on the real runtime.
//
// An App's parameters are unexported: its constructor sets them and
// nothing changes them after. An app writes its decomposition once, and
// Sequential, Parallel and Trace drive that one walk, each with its own
// step: uts's dfs, quicksort's split, the run loop of turingring, agglom
// and n-body, dmg's split and leaf, dmr's refineRegion. So the trace is
// the task graph the runs execute. Only k-means's trace models its
// chunks without running Lloyd's iterations.
//
// A run times only its algorithm. Input that a run does not change is
// built once per App, on first use, in an Input, and shared read-only by
// every Sequential, Parallel and Trace call after it, from any goroutine;
// a run that changes its input changes a copy. Two inputs are still built
// per run: turingring's ring, because 256 cells cost microseconds, and
// linalg's tiles, because runs change them in place and a parallel run
// generates each at its seed place.
type App interface {
	Model
	// Sequential runs the reference implementation and returns its result
	// checksum.
	Sequential() uint64
	// Parallel runs the application on rt and returns the result checksum,
	// which must equal ParallelReference of the app for the same parameters.
	Parallel(rt *core.Runtime) (uint64, error)
}

// ParallelReference returns the checksum a.Parallel must produce:
// Sequential(), except for an app whose parallel visit order is free (uts),
// which folds its result order-independently and supplies that reference
// as ChecksumXOR.
func ParallelReference(a App) uint64 {
	if x, ok := a.(interface{ ChecksumXOR() uint64 }); ok {
		return x.ChecksumXOR()
	}
	return a.Sequential()
}

// Input is an App's run-invariant input: the first Get builds it, and
// every Get after it, from any goroutine, returns the same value, which
// callers only read.
type Input[T any] struct {
	once sync.Once
	v    T
}

// Get returns the input, calling build on the first Get.
func (in *Input[T]) Get(build func() T) T {
	in.once.Do(func() { in.v = build() })
	return in.v
}

// Fnv1a implements the FNV-1a hash over a stream of uint64 words, a byte
// at a time; apps use it for order-dependent checksums, which fold their
// results in one fixed (sequential) order.
type Fnv1a uint64

// NewFnv returns the FNV-1a offset basis.
func NewFnv() Fnv1a { return 0xcbf29ce484222325 }

// Add folds one word into the hash.
func (h *Fnv1a) Add(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 0x100000001b3
		v >>= 8
	}
	*h = Fnv1a(x)
}

// AddFloat folds a float64 into the hash, quantized to 1e-6 so that
// reassociation-level numeric noise does not flip checksums.
func (h *Fnv1a) AddFloat(f float64) {
	h.Add(uint64(int64(f * 1e6)))
}

// Sum returns the hash value.
func (h Fnv1a) Sum() uint64 { return uint64(h) }

// Mix is the splitmix64 finalizer of a·φ + b (φ the 64-bit golden
// ratio): the deterministic hash every app derives its inputs from, O(1)
// per element with no generator state to share.
func Mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Unit maps a hash to [0, 1).
func Unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// Stripe returns which of n equal x-stripes of the unit square holds x,
// clamped to [0, n): the spatial apps home a chunk at the place owning
// its first element's stripe, so clustered inputs give places very
// different loads — the static imbalance the paper's scheduler repairs.
func Stripe(x float64, n int) int {
	return min(max(int(x*float64(n)), 0), n-1)
}

// SortX sorts s by x ascending, stably: it leaves exactly the order of
// slices.SortStableFunc(s, func(p, q T) int { return cmp.Compare(x(&p), x(&q)) })
// in O(n) instead of that merge's O(n log² n). It is an LSD radix sort
// over xKey with 8-bit digits and one scratch slice, and it skips the
// pass of any digit every element shares. Like cmp.Compare, it treats −0
// as equal to +0 and sorts every NaN first, ties in input order.
func SortX[T any](s []T, x func(*T) float64) {
	n := len(s)
	if n < 2 {
		return
	}
	var count [8][256]int
	for i := range s {
		k := xKey(x(&s[i]))
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	src, dst := s, make([]T, n)
	for d := range count {
		c, shift := &count[d], 8*d
		if c[byte(xKey(x(&src[0]))>>shift)] == n {
			continue // every element has this digit
		}
		sum := 0
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for i := range src {
			b := byte(xKey(x(&src[i])) >> shift)
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// xKey maps x to a uint64 whose unsigned order is cmp.Compare's order on
// float64: the IEEE bits with the sign bit set for x > 0 and every bit
// flipped for x < 0. −0 keys as +0, and every NaN keys as 0, below −Inf.
func xKey(x float64) uint64 {
	switch {
	case x != x:
		return 0
	case x == 0:
		return 1 << 63
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Chunks returns the [lo, hi) boundaries that cut n elements into
// chunks of size (the last one shorter).
func Chunks(n, size int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		out = append(out, [2]int{lo, min(lo+size, n)})
	}
	return out
}

// SpawnAtEnd makes every task of g spawn its children when it finishes,
// which chains iterations (and a task's inner children) in order.
func SpawnAtEnd(g *trace.Graph) {
	for i := range g.Tasks {
		if n := len(g.Tasks[i].Children); n > 0 {
			fr := make([]float64, n)
			for j := range fr {
				fr[j] = 1
			}
			g.Tasks[i].SpawnFrac = fr
		}
	}
}

// flexibleCost sums the cost of g's flexible tasks and counts them — or
// of all tasks when none are flexible.
func flexibleCost(g *trace.Graph) (sum, n int64) {
	for i := range g.Tasks {
		if g.Tasks[i].Flexible {
			sum += g.Tasks[i].CostNS
			n++
		}
	}
	if n == 0 {
		sum = g.TotalWorkNS()
		n = int64(len(g.Tasks))
	}
	return sum, n
}

// CalibrateFlexibleGranularity rescales every task cost in g by a common
// factor so the mean cost of flexible tasks equals targetNS (the paper's
// Table I granularity for the app). Graphs with no flexible tasks are
// scaled against the mean of all tasks. It returns the applied factor.
func CalibrateFlexibleGranularity(g *trace.Graph, targetNS int64) (float64, error) {
	if targetNS <= 0 {
		return 0, fmt.Errorf("apps: target granularity %d, want > 0", targetNS)
	}
	sum, n := flexibleCost(g)
	if n == 0 || sum == 0 {
		return 0, fmt.Errorf("apps: graph %q has no costed tasks to calibrate", g.Name)
	}
	factor := float64(targetNS) * float64(n) / float64(sum)
	for i := range g.Tasks {
		g.Tasks[i].CostNS = int64(float64(g.Tasks[i].CostNS) * factor)
	}
	if g.SeqNS > 0 {
		g.SeqNS = int64(float64(g.SeqNS) * factor)
	}
	return factor, nil
}

// MeanFlexibleCostNS returns the mean cost of flexible tasks (or of all
// tasks when none are flexible) — the measured Table I granularity.
func MeanFlexibleCostNS(g *trace.Graph) int64 {
	sum, n := flexibleCost(g)
	if n == 0 {
		return 0
	}
	return sum / n
}
