// Package turingring implements the Cowichan Turing Ring benchmark
// (paper §IV-B, §VII: coupled differential equations over 1M bodies in a
// ring of cells). Each iteration updates predator and prey populations in
// every cell and migrates bodies between neighbouring cells; migration can
// shift a cell's workload by two orders of magnitude in one iteration,
// which is exactly the dynamic imbalance the paper's scheduler targets.
//
// Following the paper's Fig. 1 decomposition, the *outer* per-cell task —
// which updates both populations and performs migration bookkeeping — is
// locality-flexible: once the cell is copied to a thief, all further
// operations are local and nothing must be copied back. The *inner* prey
// update (`async (thisPlace) c.updatePreyPop()`) is locality-sensitive: if
// it alone were stolen, populations would have to be copied both ways.
package turingring

import (
	"fmt"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/task"
	"distws/internal/trace"
)

// Cell holds the two populations of one ring cell.
type Cell struct {
	Prey, Pred float64
}

// App configures one Turing Ring instance.
type App struct {
	cells int   // the ring size
	iters int   // simulated iterations
	seed  int64 // drives the initial population layout
}

// granularityNS is the Table I calibration target: 1.86 ms.
const granularityNS = 1_860_000

// New returns a Turing Ring over cells cells for iters iterations.
func New(cells, iters int, seed int64) *App {
	return &App{cells: cells, iters: iters, seed: seed}
}

// Name implements apps.App.
func (a *App) Name() string { return "turingring" }

// initial builds the deterministic starting populations: a modest
// background plus a few dense blooms.
func (a *App) initial() []Cell {
	cells := make([]Cell, a.cells)
	for i := range cells {
		h := apps.Mix(uint64(a.seed), uint64(i))
		cells[i].Prey = 20 + float64(h%50)
		cells[i].Pred = 5 + float64((h>>8)%10)
	}
	// Dense blooms every ~64 cells seed travelling spikes.
	for i := 0; i < a.cells; i += 64 {
		cells[i].Prey += 3000
		cells[i].Pred += 200
	}
	return cells
}

// grow applies one step of the predator–prey dynamics to a single cell.
func grow(c Cell) Cell {
	prey := c.Prey + 0.25*c.Prey*(1-c.Prey/5000) - 0.0003*c.Pred*c.Prey
	pred := c.Pred + 0.00008*c.Pred*c.Prey - 0.05*c.Pred
	if prey < 0 {
		prey = 0
	}
	if pred < 0 {
		pred = 0
	}
	if prey > 50_000 {
		prey = 50_000
	}
	if pred > 50_000 {
		pred = 50_000
	}
	return Cell{Prey: prey, Pred: pred}
}

// outflow returns the fraction of each population leaving cell i at
// iteration iter and the direction (+1 right, -1 left). Bursts — the
// paper's two-orders-of-magnitude load shifts — dump 90% of a bloom onto
// one neighbour.
func (a *App) outflow(i, iter int, c Cell) (preyOut, predOut float64, dir int) {
	h := apps.Mix(uint64(a.seed)^uint64(iter)*1315423911, uint64(i))
	dir = 1
	if h&1 == 0 {
		dir = -1
	}
	preyFrac, predFrac := 0.05, 0.05
	if c.Prey > 1000 && h%5 == 0 {
		preyFrac = 0.9 // bloom collapse
	}
	if c.Pred > 300 && h%7 == 0 {
		predFrac = 0.9 // predator swarm chases it
	}
	return preyFrac * c.Prey, predFrac * c.Pred, dir
}

// stepCell computes iteration iter: next[i] from cur (pure function of
// cur, so per-cell tasks parallelize without races).
func (a *App) stepCell(cur []Cell, i, iter int) Cell {
	n := len(cur)
	g := grow(cur[i])
	pOut, dOut, _ := a.outflow(i, iter, g)
	next := Cell{Prey: g.Prey - pOut, Pred: g.Pred - dOut}
	// Inflow from the two neighbours whose outflow points at us.
	for _, d := range []int{-1, 1} {
		j := (i + d + n) % n
		gj := grow(cur[j])
		pj, dj, dirj := a.outflow(j, iter, gj)
		if (j+dirj+n)%n == i {
			next.Prey += pj
			next.Pred += dj
		}
	}
	return next
}

// burn spends one multiply-add per body of c, so the runnable versions
// have genuine granularity proportional to the cell's population; the
// trace models that cost instead of paying it.
func burn(c Cell) Cell {
	acc := 1.0
	for k, n := 0, bodies(c); k < n; k++ {
		acc += acc * 1e-9
	}
	if acc < 0 { // never true; defeats dead-code elimination
		c.Prey += acc
	}
	return c
}

// bodies returns the body count of a cell (its task cost unit).
func bodies(c Cell) int { return int(c.Prey + c.Pred) }

// checksum quantizes and hashes the final populations.
func checksum(cells []Cell) uint64 {
	h := apps.NewFnv()
	for i := range cells {
		h.AddFloat(cells[i].Prey)
		h.AddFloat(cells[i].Pred)
	}
	return h.Sum()
}

// run steps the ring iters times from its initial populations: each
// iteration eachIter fills next from cur, and the two swap. It returns
// the final populations' checksum.
func (a *App) run(eachIter func(iter int, cur, next []Cell)) uint64 {
	cur := a.initial()
	next := make([]Cell, len(cur))
	for iter := 0; iter < a.iters; iter++ {
		eachIter(iter, cur, next)
		cur, next = next, cur
	}
	return checksum(cur)
}

// Sequential implements apps.App.
func (a *App) Sequential() uint64 {
	return a.run(func(iter int, cur, next []Cell) {
		for i := range cur {
			next[i] = burn(a.stepCell(cur, i, iter))
		}
	})
}

// Parallel implements apps.App: the ring is block-distributed over the places;
// each iteration spawns one flexible outer task per cell (which spawns
// the sensitive inner prey task), with a finish barrier per iteration as
// in the paper's pseudo-code.
func (a *App) Parallel(rt *core.Runtime) (uint64, error) {
	places := rt.Places()
	var sum uint64
	err := rt.Run(func(ctx *core.Ctx) {
		sum = a.run(func(iter int, cur, next []Cell) {
			ctx.Finish(func(c *core.Ctx) {
				for i := range cur {
					cell := i
					home := placeOf(cell, a.cells, places)
					loc := task.Locality{
						Class:          task.Flexible,
						MigrationBytes: 16 * (bodies(cur[cell]) + 1),
					}
					c.AsyncLoc(home, loc, func(cc *core.Ctx) {
						// Outer task: full cell update (predators,
						// migration bookkeeping) ...
						res := burn(a.stepCell(cur, cell, iter))
						// ... with the prey refinement as an inner
						// sensitive task at the executing place, as in
						// Fig. 1 line 6.
						cc.Finish(func(c3 *core.Ctx) {
							c3.Async(c3.Place(), func(*core.Ctx) {
								next[cell] = res
							})
						})
					})
				}
			})
		})
	})
	if err != nil {
		return 0, fmt.Errorf("turingring: %w", err)
	}
	return sum, nil
}

// Trace implements apps.App: the real dynamics are simulated; each
// iteration is a barrier (as in the parallel implementation's per-
// iteration finish): an iteration-coordinator task parents one flexible
// outer task per cell (cost ∝ bodies), each with a sensitive inner child.
func (a *App) Trace(places int) (*trace.Graph, error) {
	b := trace.NewBuilder(a.Name())
	prevIter := -1
	a.run(func(iter int, cur, next []Cell) {
		coord := trace.Task{
			HomeMode:  trace.HomeFixed,
			Home:      0,
			CostNS:    int64(a.cells),
			Flexible:  false,
			BaseMsgs:  places - 1, // iteration barrier/broadcast
			BaseBytes: 16 * (places - 1),
		}
		var cid int
		if prevIter < 0 {
			cid = b.Root(coord)
		} else {
			cid = b.Child(prevIter, coord)
		}
		prevIter = cid
		for i := range cur {
			nb := bodies(cur[i])
			id := b.Child(cid, a.outerTask(places, i, nb, placeOf(i, a.cells, places)))
			// Inner sensitive prey update, local to wherever the outer ran.
			b.Child(id, trace.Task{
				HomeMode: trace.HomeInherit,
				CostNS:   int64(nb/4 + 1),
				Flexible: false,
				MigBytes: 8 * (nb + 1),
				// If stolen alone (DistWS-NS), populations are copied to
				// the thief and the result copied back: remote refs.
				MigMsgs:   nb/64 + 2,
				Blocks:    cellBlocks(i, nb),
				BlockReps: 4,
			})
			next[i] = a.stepCell(cur, i, iter)
		}
	})
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("turingring: %w", err)
	}
	// Children (the inner task and the next iteration's outer task) spawn
	// at the end of their parent, preserving per-cell iteration order.
	apps.SpawnAtEnd(g)
	if _, err := apps.CalibrateFlexibleGranularity(g, granularityNS); err != nil {
		return nil, fmt.Errorf("turingring: %w", err)
	}
	return g, nil
}

// outerTask models the flexible whole-cell task.
func (a *App) outerTask(places, cell, nb, home int) trace.Task {
	t := trace.Task{
		HomeMode: trace.HomeFixed,
		Home:     home,
		CostNS:   int64(nb + 1),
		Flexible: true,
		// The entire cell is copied once; afterwards everything is local
		// (paper §IV-B), so no MigMsgs.
		MigBytes:  16 * (nb + 1),
		Blocks:    cellBlocks(cell, nb),
		BlockReps: 4,
	}
	// Neighbour exchange crosses a place boundary for edge cells.
	n := a.cells
	left := (cell - 1 + n) % n
	right := (cell + 1) % n
	if placeOf(left, n, places) != home {
		t.BaseMsgs++
		t.BaseBytes += 32
	}
	if placeOf(right, n, places) != home {
		t.BaseMsgs++
		t.BaseBytes += 32
	}
	return t
}

// placeOf returns the place owning cell i of the ring block-distributed
// over places places — the DistArray of the paper's §IV-B pseudo-code:
// place p owns the contiguous range [p·n/P, (p+1)·n/P).
func placeOf(i, n, places int) int {
	if places <= 0 {
		panic(fmt.Sprintf("turingring: placeOf places=%d", places))
	}
	if i < 0 || i >= n {
		panic(fmt.Sprintf("turingring: cell %d out of range [0,%d)", i, n))
	}
	// Inverse of the block bounds, guarded against rounding at block
	// boundaries.
	p := i * places / n
	for p > 0 && i < p*n/places {
		p--
	}
	for p < places-1 && i >= (p+1)*n/places {
		p++
	}
	return p
}

// cellBlocks derives a cell's footprint: one block per 32 bodies.
func cellBlocks(cell, nb int) []uint64 {
	n := nb/32 + 1
	if n > 32 {
		n = 32
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(cell)<<16 | uint64(i)
	}
	return out
}

var _ apps.App = (*App)(nil)
