// Package apps defines the benchmark application suite of the paper's
// evaluation (§VII): four Cowichan problems (Quicksort, Turing Ring,
// k-Means, n-Body) and three Lonestar problems (Agglomerative clustering,
// Delaunay mesh generation, Delaunay mesh refinement), plus the five
// fine-grained micro-applications of the granularity study (§VIII-Q2) and
// Unbalanced Tree Search (§X).
//
// Every application provides three things:
//
//   - a reference sequential implementation (checksummed),
//   - a parallel implementation against the real runtime (internal/core)
//     whose result must match the sequential checksum, and
//   - a trace generator that runs the real algorithm instrumented at task
//     boundaries and emits a trace.Graph for the cluster simulator.
package apps

import (
	"fmt"

	"distws/internal/core"
	"distws/internal/trace"
)

// App is one benchmark application.
type App interface {
	// Name returns the short name used in tables ("quicksort", "dmg", ...).
	Name() string
	// Sequential runs the reference implementation and returns its result
	// checksum.
	Sequential() uint64
	// Parallel runs the application on rt and returns the result checksum,
	// which must equal ParallelReference of the app for the same parameters.
	Parallel(rt *core.Runtime) (uint64, error)
	// Trace generates the simulator task graph for a cluster of places
	// places. The graph reflects the real algorithm's task structure and
	// work distribution at the app's configured scale.
	Trace(places int) (*trace.Graph, error)
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

// Fnv1a implements the FNV-1a hash over a stream of uint64 words; apps use
// it for order-independent-free (sequential) checksums.
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

// CalibrateFlexibleGranularity rescales every task cost in g by a common
// factor so the mean cost of flexible tasks equals targetNS (the paper's
// Table I granularity for the app). Graphs with no flexible tasks are
// scaled against the mean of all tasks. It returns the applied factor.
func CalibrateFlexibleGranularity(g *trace.Graph, targetNS int64) (float64, error) {
	if targetNS <= 0 {
		return 0, fmt.Errorf("apps: target granularity %d, want > 0", targetNS)
	}
	var sum int64
	var n int64
	for i := range g.Tasks {
		if g.Tasks[i].Flexible {
			sum += g.Tasks[i].CostNS
			n++
		}
	}
	if n == 0 {
		for i := range g.Tasks {
			sum += g.Tasks[i].CostNS
			n++
		}
	}
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
	var sum int64
	var n int64
	for i := range g.Tasks {
		if g.Tasks[i].Flexible {
			sum += g.Tasks[i].CostNS
			n++
		}
	}
	if n == 0 {
		for i := range g.Tasks {
			sum += g.Tasks[i].CostNS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
