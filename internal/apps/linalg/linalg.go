// Package linalg is the dataflow workload family the DAG task model
// (internal/dag) exists for: tiled dense linear algebra — right-looking
// Cholesky and LU factorizations — plus a multi-stage item pipeline.
// These graphs cannot be expressed as fork-join Finish scopes: a tile's
// consumers are released by its producer completing, not by a parent
// returning, and the scheduler's placement choice is a genuine
// data-movement-versus-load trade per task.
//
// Every app provides the same three faces as the fork-join suite
// (internal/apps): a checksummed sequential reference, a parallel run on
// the real runtime, and a graph for the simulator. The parallel
// checksums are bit-exact against the sequential ones — the dependency
// edges totally order all writes to each tile, so the floating-point
// result is identical regardless of schedule — which makes the checksum
// a scheduler-correctness test, not just a smoke test.
//
// Each workload generates its data one tile at a time. The sequential
// reference runs the generator in tile order; the parallel run, before
// dag.Execute, runs it as one task per tile pinned to the place the
// graph seeds that tile at, so the data starts where the block directory
// says it is, and no worker idles through a serial set-up. The graph and
// its kernels do not depend on the data: an app builds them once per place
// count and every run binds its own tiles, so the runs of an app share one
// graph and the one schedule dag derives for it.
package linalg

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"distws/internal/core"
	"distws/internal/dag"
)

// App is one dataflow benchmark.
type App interface {
	// Name returns the short name used in tables and flags
	// ("cholesky", "lu", "pipeline").
	Name() string
	// Sequential runs the reference tiled-sequential implementation and
	// returns its result checksum.
	Sequential() uint64
	// Parallel runs the app on rt under pol via dag.Execute and returns
	// the result checksum — bit-identical to Sequential() — plus the
	// run's data-movement stats.
	Parallel(rt *core.Runtime, pol dag.Policy) (uint64, dag.ExecStats, error)
	// Graph returns the app's dataflow graph for a cluster of places
	// places: blocks seeded by the app's physical distribution, declared
	// homes data-obliviously round-robin (see the builders' comments).
	// Each place count's graph is built once; every caller and run shares
	// it, read-only.
	Graph(places int) (*dag.Graph, error)
}

// Suite returns the dataflow apps at their benchmark scales.
func Suite(seed int64) []App {
	return []App{
		NewCholesky(512, 32, seed),
		NewLU(384, 32, seed),
		NewPipeline(64, 8, 2048, seed),
	}
}

// ByName resolves one app by its table name.
func ByName(name string, seed int64) (App, error) {
	for _, a := range Suite(seed) {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("linalg: unknown app %q (have cholesky, lu, pipeline)", name)
}

// Names lists the suite's app names.
func Names() []string { return []string{"cholesky", "lu", "pipeline"} }

// kernels is what a dataflow workload supplies: its initial data, one
// tile at a time, and a builder that emits the task graph for places
// places and one kernel per task, which runs on the data it is given.
// data holds size() tiles; tile k is the graph's block block(k), or no
// block when that is negative, and is generated only when the graph seeds
// its block (Cholesky's upper tiles are no blocks and stay nil).
type kernels interface {
	size() int
	block(k int) int
	tile(k int) []float64
	build(places int) (*dag.Graph, []op)
}

// op is one task's kernel, run on a run's tiles.
type op func(data [][]float64)

// dataflow implements App once over any workload's kernels. It builds
// the graph of each place count once, on first use, and keeps it with
// its kernels: every later run shares the graph, and so the dependency
// schedule dag derives once per graph.
type dataflow struct {
	name string
	kernels

	mu    sync.Mutex
	built map[int]builtGraph // by place count
}

type builtGraph struct {
	g   *dag.Graph
	ops []op
}

// graph returns the graph for places places and its kernels, building
// them on first use.
func (a *dataflow) graph(places int) (*dag.Graph, []op) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.built[places]
	if !ok {
		b.g, b.ops = a.build(places)
		if a.built == nil {
			a.built = map[int]builtGraph{}
		}
		a.built[places] = b
	}
	return b.g, b.ops
}

// Name implements App.
func (a *dataflow) Name() string { return a.name }

// Graph implements App.
func (a *dataflow) Graph(places int) (*dag.Graph, error) {
	g, _ := a.graph(places)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Sequential implements App: the same kernels in program order.
func (a *dataflow) Sequential() uint64 { return checksum(a.final()) }

// final runs the kernels in program order and returns the final tiles.
func (a *dataflow) final() [][]float64 {
	data := make([][]float64, a.size())
	g, ops := a.graph(1)
	a.generate(g, data)
	for _, op := range ops {
		op(data)
	}
	return data
}

// Parallel implements App.
func (a *dataflow) Parallel(rt *core.Runtime, pol dag.Policy) (uint64, dag.ExecStats, error) {
	g, ops := a.graph(rt.Places())
	data := make([][]float64, a.size())
	if err := a.generateAt(rt, g, data); err != nil {
		return 0, dag.ExecStats{}, fmt.Errorf("linalg: generating %s: %w", a.name, err)
	}
	stats, err := dag.Execute(rt, g, dag.ExecOptions{
		Policy: pol,
		Kernel: func(t *dag.Task) { ops[t.ID](data) },
	})
	if err != nil {
		return 0, stats, err
	}
	return checksum(data), stats, nil
}

// tileSeed returns the place g seeds tile k's block at, or dag.NoSeed.
func (a *dataflow) tileSeed(g *dag.Graph, k int) int {
	if b := a.block(k); b >= 0 {
		return g.Seed[b]
	}
	return dag.NoSeed
}

// generate fills data with every tile g seeds, in index order.
func (a *dataflow) generate(g *dag.Graph, data [][]float64) {
	for k := range data {
		if a.tileSeed(g, k) != dag.NoSeed {
			data[k] = a.tile(k)
		}
	}
}

// generateAt fills data as generate does, one task per tile under Run's
// finish, each pinned to the place g seeds the tile at: the place the
// block directory starts a tile at is the place that first writes it.
func (a *dataflow) generateAt(rt *core.Runtime, g *dag.Graph, data [][]float64) error {
	return rt.Run(func(c *core.Ctx) {
		for k := range data {
			if p := a.tileSeed(g, k); p != dag.NoSeed {
				c.Async(p, func(*core.Ctx) { data[k] = a.tile(k) })
			}
		}
	})
}

// hash01 returns a deterministic pseudo-random value in [0, 1) from
// (seed, i, j) — a splitmix64-style finalizer, so matrix generation is
// O(1) per entry with no rng state to share.
func hash01(seed int64, i, j int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9 + uint64(j+1)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// checksum folds the exact bit patterns of every value in every tile:
// dataflow ordering makes parallel results bit-identical to sequential
// ones, so no quantization is needed (or wanted — it would mask
// scheduler-induced reorderings). It takes one word per step from the
// FNV offset basis: an FNV multiply, whose carries only move bits up,
// then a fold of the high half down, so the next word's bits meet every
// bit of the last. One multiply sits on the dependency chain where
// FNV-1a's byte fold (apps.Fnv1a) has eight; the plain word fold
// (h ^ w) * P, without the mix, lets two adjacent sign flips cancel.
func checksum(tiles [][]float64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, t := range tiles {
		for _, v := range t {
			h = (h ^ math.Float64bits(v)) * 0x100000001b3
			h ^= h >> 32
		}
	}
	return h
}

// grid is the shape Cholesky and LU share: an n×n matrix in b×b tiles
// generated from seed, data slot k holding tile (k/T, k%T). The tiles are
// every one, or with lower only those on and below the diagonal.
type grid struct {
	n, b  int
	seed  int64
	lower bool
}

func (a grid) tiles() int { return a.n / a.b }

func (a grid) size() int { return a.tiles() * a.tiles() }

// at returns tile (i, j) of data.
func (a grid) at(data [][]float64, i, j int) []float64 { return data[i*a.tiles()+j] }

// block numbers the tiles row by row, so tile (i, j) is block i·T + j,
// or with lower i(i+1)/2 + j; an upper tile of a lower grid is no block.
func (a grid) block(k int) int {
	i, j := k/a.tiles(), k%a.tiles()
	switch {
	case !a.lower:
		return k
	case j > i:
		return -1
	default:
		return i*(i+1)/2 + j
	}
}

// tiledGraph is the graph builder Cholesky and LU share: a T×T tile grid
// seeded 2D block-cyclic (gridOwner) — the standard physical layout —
// with declared task homes round-robin in spawn order, the placement a
// data-oblivious scheduler uses to spread load. PolicyBlind runs exactly
// that; PolicyDataAware must rediscover the tile locality from the block
// directory.
type tiledGraph struct {
	grid      grid
	g         *dag.Graph
	ops       []op
	T, places int
}

// newTiledGraph declares the grid's tiles as the graph's blocks, in
// block order, each seeded at its block-cyclic owner.
func newTiledGraph(name string, a grid, places int) *tiledGraph {
	owner := gridOwner(places)
	T := a.tiles()
	g := &dag.Graph{Name: name}
	for k := 0; k < T*T; k++ {
		if a.block(k) >= 0 {
			g.AddBlock(a.b*a.b*8, owner(k/T, k%T))
		}
	}
	return &tiledGraph{grid: a, g: g, T: T, places: places}
}

// blk returns tile (i, j)'s block.
func (t *tiledGraph) blk(i, j int) int { return t.grid.block(i*t.T + j) }

// add appends one kernel task of cost flops that reads in and writes out
// and whose kernel is run.
func (t *tiledGraph) add(label string, flops int64, in []int, out int, run op) {
	t.g.Tasks = append(t.g.Tasks, dag.Task{
		ID:      len(t.g.Tasks),
		Label:   label,
		CostNS:  flopNS(flops),
		Home:    len(t.g.Tasks) % t.places,
		Inputs:  in,
		Outputs: []int{out},
	})
	t.ops = append(t.ops, run)
}

// label returns a task's label, name(i,j,...), the string
// fmt.Sprintf("%s(%d,%d,...)") gives, built without fmt: a graph of
// thousands of tasks spent most of its build formatting them.
func label(name string, idx ...int) string {
	var buf [40]byte
	b := append(append(buf[:0], name...), '(')
	for n, i := range idx {
		if n > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return string(append(b, ')'))
}

// gridOwner returns the 2D block-cyclic owner map over places — the
// ScaLAPACK-standard decomposition: tile (i, j) belongs to place
// (i mod pr)·pc + (j mod pc) on the most-square pr×pc grid with
// pr·pc = places. It balances both row and column panels across the
// cluster, unlike 1D cyclic maps that collapse a whole panel onto one
// place when the tile count divides the place count.
func gridOwner(places int) func(i, j int) int {
	pr := 1
	for d := 1; d*d <= places; d++ {
		if places%d == 0 {
			pr = d
		}
	}
	pc := places / pr
	return func(i, j int) int { return (i%pr)*pc + (j % pc) }
}

// flopNS converts a kernel's flop count into modelled virtual
// nanoseconds at 4 flops/ns — a contemporary core running a tuned
// kernel — keeping tile transfer times (§ topology.DefaultNetwork) a
// meaningful fraction of task cost, as they are on real clusters.
func flopNS(flops int64) int64 {
	ns := flops / 4
	if ns < 1 {
		ns = 1
	}
	return ns
}
