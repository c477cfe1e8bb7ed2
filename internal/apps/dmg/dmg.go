// Package dmg implements the Lonestar Delaunay Mesh Generation benchmark
// (paper §IV-A, §VII: 2-D triangular mesh over 80,000 points). The
// decomposition follows the paper's description: the domain is split into
// regions (triangles in the paper, quadrants here) that encapsulate their
// points; a region task either splits into four child tasks or
// triangulates its points with the Bowyer–Watson kernel (internal/geom).
// Region tasks are locality-flexible — they carry all the data they need,
// are coarse, and spawn work for the thief's co-located workers — the
// paper's archetype of a profitably stealable task (31% gain at 64
// workers).
//
// Regions are triangulated independently (no cross-region stitching);
// both the reference sequential implementation and the parallel one use
// the same decomposition, so checksums are directly comparable.
package dmg

import (
	"fmt"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/geom"
	"distws/internal/task"
	"distws/internal/trace"
)

// region is an axis-aligned box with its points.
type region struct {
	minX, minY, maxX, maxY float64
	pts                    []geom.Point
}

// App configures one DMG instance.
type App struct {
	n      int   // points (paper scale: 80_000)
	seed   int64 // drives the input distribution
	cutoff int   // region size above which a region splits rather than triangulates

	roots apps.Input[[]region] // gen's points in root regions, shared read-only
}

const (
	// rootGrid is the number of top-level column stripes (one root region
	// per stripe), distributed over the places.
	rootGrid = 16
	// granularityNS is the Table I calibration target: 732 ms.
	granularityNS = 732_000_000
)

// New returns a DMG app over n points.
func New(n int, seed int64) *App {
	return &App{n: n, seed: seed, cutoff: max(n/96, 64)}
}

// Name implements apps.App.
func (a *App) Name() string { return "dmg" }

// gen produces clustered points in the unit square.
func (a *App) gen() []geom.Point {
	pts := make([]geom.Point, a.n)
	for i := range pts {
		h := apps.Mix(uint64(a.seed), uint64(i))
		var x, y float64
		switch h % 8 {
		case 0, 1, 2, 3: // dense cluster
			x = 0.1 + 0.25*apps.Unit(apps.Mix(h, 1))
			y = 0.55 + 0.3*apps.Unit(apps.Mix(h, 2))
		case 4, 5: // medium band
			x = 0.5 + 0.45*apps.Unit(apps.Mix(h, 3))
			y = 0.05 + 0.35*apps.Unit(apps.Mix(h, 4))
		default: // background
			x, y = apps.Unit(apps.Mix(h, 5)), apps.Unit(apps.Mix(h, 6))
		}
		pts[i] = geom.Point{X: x, Y: y}
	}
	return pts
}

// rootRegions splits the domain into rootGrid column stripes.
func rootRegions(pts []geom.Point) []region {
	regs := make([]region, rootGrid)
	for i := range regs {
		regs[i] = region{
			minX: float64(i) / float64(rootGrid),
			maxX: float64(i+1) / float64(rootGrid),
			minY: 0, maxY: 1,
		}
	}
	for _, p := range pts {
		i := apps.Stripe(p.X, rootGrid)
		regs[i].pts = append(regs[i].pts, p)
	}
	return regs
}

// regions returns the root regions of the input points, generating them
// on first use. A run only reads them: split copies points into fresh
// quadrants.
func (a *App) regions() []region {
	return a.roots.Get(func() []region { return rootRegions(a.gen()) })
}

// split quarters a region by its midlines.
func split(r region) [4]region {
	mx, my := (r.minX+r.maxX)/2, (r.minY+r.maxY)/2
	quads := [4]region{
		{r.minX, r.minY, mx, my, nil},
		{mx, r.minY, r.maxX, my, nil},
		{r.minX, my, mx, r.maxY, nil},
		{mx, my, r.maxX, r.maxY, nil},
	}
	for _, p := range r.pts {
		q := 0
		if p.X >= mx {
			q |= 1
		}
		if p.Y >= my {
			q |= 2
		}
		quads[q].pts = append(quads[q].pts, p)
	}
	return quads
}

// triangulate builds the region's local mesh and returns (live triangles,
// cavity work units).
func triangulate(r region) (alive, steps int) {
	if len(r.pts) == 0 {
		return 0, 0
	}
	m := geom.NewMesh(r.minX, r.minY, r.maxX, r.maxY, len(r.pts))
	for _, p := range r.pts {
		m.Insert(p) // duplicates are skipped with an error; that's fine
	}
	return m.NumAlive(), m.InsertSteps
}

// leafStat is the checksummable output of one leaf region.
type leafStat struct {
	keyLen, npts, alive int
}

// leaf triangulates leaf region r.
func leaf(r region) leafStat {
	alive, _ := triangulate(r)
	return leafStat{keyLen: len(leafKey(r)), npts: len(r.pts), alive: alive}
}

// checksum folds leaf statistics in decomposition order.
func checksum(stats []leafStat) uint64 {
	h := apps.NewFnv()
	for _, s := range stats {
		h.Add(uint64(s.keyLen))
		h.Add(uint64(s.npts))
		h.Add(uint64(s.alive))
	}
	return h.Sum()
}

// leafKey identifies a leaf region stably.
func leafKey(r region) string {
	return fmt.Sprintf("%.6f:%.6f:%.6f:%.6f", r.minX, r.minY, r.maxX, r.maxY)
}

// walk is dmg's one decomposition, which Sequential, Parallel and Trace
// drive: region r, tagged t, is a leaf once it holds at most cutoff
// points; otherwise it splits into quadrants, and fan walks each of them
// by calling down with the quadrant and its own tag. Sequential and Trace
// fan out in turn on the caller's stack, Parallel from one task per
// quadrant.
func walk[T any](cutoff int, r region, t T, fan func(t T, quads [4]region, down func(q region, t T)), leaf func(t T, r region)) {
	if len(r.pts) <= cutoff {
		leaf(t, r)
		return
	}
	fan(t, split(r), func(q region, qt T) { walk(cutoff, q, qt, fan, leaf) })
}

// Sequential implements apps.App.
func (a *App) Sequential() uint64 {
	var stats []leafStat
	for _, r := range a.regions() {
		walk(a.cutoff, r, struct{}{},
			func(t struct{}, quads [4]region, down func(region, struct{})) {
				for _, q := range quads {
					down(q, t)
				}
			},
			func(_ struct{}, r region) { stats = append(stats, leaf(r)) })
	}
	return checksum(stats)
}

// regionPlace maps a root stripe to a place.
func regionPlace(i, places int) int {
	return i * places / rootGrid
}

// result is what one region task of Parallel leaves behind: a leaf's
// stats, or its four quadrants' results, each written by its own task.
type result struct {
	leaf  leafStat
	quads []result
}

// fold appends the leaf stats under res in decomposition order.
func (res *result) fold(stats *[]leafStat) {
	if res.quads == nil {
		*stats = append(*stats, res.leaf)
		return
	}
	for i := range res.quads {
		res.quads[i].fold(stats)
	}
}

// Parallel implements apps.App.
func (a *App) Parallel(rt *core.Runtime) (uint64, error) {
	places := rt.Places()
	// A region's tag is the task walking it and the result it fills.
	type node struct {
		c   *core.Ctx
		res *result
	}
	fan := func(t node, quads [4]region, down func(region, node)) {
		t.res.quads = make([]result, 4)
		t.c.Finish(func(cc *core.Ctx) {
			for i, q := range quads {
				q, qres := q, &t.res.quads[i]
				cc.AsyncLoc(cc.Place(), a.locality(len(q.pts)), func(c3 *core.Ctx) {
					down(q, node{c3, qres})
				})
			}
		})
	}
	fill := func(t node, r region) { t.res.leaf = leaf(r) }
	roots := a.regions()
	results := make([]result, len(roots))
	err := rt.Run(func(ctx *core.Ctx) {
		ctx.Finish(func(c *core.Ctx) {
			for i, r := range roots {
				i, r := i, r
				c.AsyncLoc(regionPlace(i, places), a.locality(len(r.pts)), func(cc *core.Ctx) {
					walk(a.cutoff, r, node{cc, &results[i]}, fan, fill)
				})
			}
		})
	})
	if err != nil {
		return 0, fmt.Errorf("dmg: %w", err)
	}
	var stats []leafStat
	for i := range results {
		results[i].fold(&stats)
	}
	return checksum(stats), nil
}

func (a *App) locality(npts int) task.Locality {
	return task.Locality{
		Class:          task.Flexible,
		MigrationBytes: 16*npts + 64,
	}
}

// Trace implements apps.App: the decomposition is replayed; split tasks
// cost ∝ their point count, leaf tasks cost their measured cavity work.
// All region tasks are flexible; children inherit the executing place
// (paper §II condition b).
func (a *App) Trace(places int) (*trace.Graph, error) {
	b := trace.NewBuilder(a.Name())
	roots := a.regions()
	fan := func(parent int, quads [4]region, down func(region, int)) {
		for _, q := range quads {
			down(q, b.Child(parent, trace.Task{
				HomeMode:  trace.HomeInherit,
				CostNS:    int64(len(q.pts) + 1),
				Flexible:  true,
				MigBytes:  16*len(q.pts) + 64,
				BaseMsgs:  1,
				BaseBytes: 64,
				Blocks:    regionBlocks(q),
				BlockReps: 6,
			}))
		}
	}
	leafTasks := func(parent int, r region) {
		_, steps := triangulate(r)
		// The leaf's triangulation work happens in the region task itself;
		// fold it in as a child so the cavity work is a distinct cost unit.
		leaf := b.Child(parent, trace.Task{
			HomeMode: trace.HomeInherit,
			CostNS:   int64(steps*8 + len(r.pts)),
			Flexible: true,
			MigBytes: 16*len(r.pts) + 64,
			// Once copied, everything is local (paper §IV-A): no MigMsgs.
			BaseMsgs:  1,
			BaseBytes: 32,
			Blocks:    regionBlocks(r),
			BlockReps: 6,
		})
		// Folding the leaf's triangles into the region's mesh fragment is
		// locality-sensitive: it mutates the region data in place, so a
		// non-selective steal of this task pays a remote reference per
		// few triangles.
		b.Child(leaf, trace.Task{
			HomeMode:  trace.HomeInherit,
			CostNS:    int64(len(r.pts)/2 + 1),
			Flexible:  false,
			MigBytes:  8*len(r.pts) + 32,
			MigMsgs:   len(r.pts)/8 + 2,
			Blocks:    regionBlocks(r),
			BlockReps: 3,
		})
	}
	for i, r := range roots {
		root := b.Root(trace.Task{
			HomeMode:  trace.HomeFixed,
			Home:      regionPlace(i, places),
			CostNS:    int64(len(r.pts) + 1),
			Flexible:  true,
			MigBytes:  16*len(r.pts) + 64,
			BaseMsgs:  1,
			BaseBytes: 64,
			Blocks:    regionBlocks(r),
			BlockReps: 6,
		})
		walk(a.cutoff, r, root, fan, leafTasks)
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("dmg: %w", err)
	}
	if _, err := apps.CalibrateFlexibleGranularity(g, granularityNS); err != nil {
		return nil, fmt.Errorf("dmg: %w", err)
	}
	return g, nil
}

// regionBlocks derives a footprint shared across a root stripe: every
// region nested in the same column stripe draws from the stripe's block
// namespace, so a subtree processed at its home place stays warm while a
// stolen subtree starts cold at the thief.
func regionBlocks(r region) []uint64 {
	stripe := uint64(int64(r.minX * 1024)) // stable per column stripe
	n := len(r.pts)/64 + 1
	if n > 48 {
		n = 48
	}
	// Offset sub-blocks by the region's y position so sibling quadrants
	// overlap partially, not fully.
	off := uint64(int64(r.minY*64)) % 16
	out := make([]uint64, n)
	for i := range out {
		out[i] = stripe<<32 | (off + uint64(i))
	}
	return out
}

var _ apps.App = (*App)(nil)
