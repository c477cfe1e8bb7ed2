// Package dmr implements the Lonestar Delaunay Mesh Refinement benchmark
// (paper §VII: refining a mesh of 550K triangles so no angle is below 30
// degrees). Each domain region owns a mesh; bad triangles (small minimum
// angle) are fixed by inserting their circumcenter — a Bowyer–Watson
// cavity operation that kills the bad triangle and may create new bad
// ones, the classic irregular, dynamically unfolding workload.
//
// The region task is locality-flexible: it encapsulates its mesh and
// points, and every cavity operation it spawns is local to wherever the
// region landed (paper §II conditions a–d). The per-insert cavity tasks
// are locality-sensitive children that inherit the executing place.
package dmr

import (
	"fmt"
	"math"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/geom"
	"distws/internal/task"
	"distws/internal/trace"
)

// App configures one DMR instance.
type App struct {
	// n is the number of seed points (the initial mesh has ~2n triangles;
	// paper scale works out to ~275_000 points for 550K triangles).
	n    int
	seed int64 // drives the input distribution

	parts apps.Input[[][]geom.Point] // gen's points by region, shared read-only
}

const (
	// minAngleDeg is the refinement quality bound (the paper uses 30; 26
	// keeps cascades bounded without boundary segment handling).
	minAngleDeg = 26
	// rootGrid is the number of domain regions.
	rootGrid = 64
	// capFactor bounds inserts per region at capFactor×points (safety
	// against pathological cascades near region borders).
	capFactor = 8
	// granularityNS is the Table I calibration target: 899 ms.
	granularityNS = 899_000_000
)

// New returns a DMR app over n seed points.
func New(n int, seed int64) *App {
	return &App{n: n, seed: seed}
}

// Name implements apps.App.
func (a *App) Name() string { return "dmr" }

// gen produces clustered seed points (clusters produce skinny triangles
// at their borders — plenty of refinement work, unevenly distributed).
func (a *App) gen() []geom.Point {
	pts := make([]geom.Point, a.n)
	for i := range pts {
		h := apps.Mix(uint64(a.seed), uint64(i))
		var x, y float64
		switch h % 8 {
		case 0, 1, 2, 3:
			x = 0.05 + 0.3*apps.Unit(apps.Mix(h, 1))
			y = 0.1 + 0.25*apps.Unit(apps.Mix(h, 2))
		case 4, 5:
			x = 0.6 + 0.35*apps.Unit(apps.Mix(h, 3))
			y = 0.55 + 0.4*apps.Unit(apps.Mix(h, 4))
		default:
			x, y = apps.Unit(apps.Mix(h, 5)), apps.Unit(apps.Mix(h, 6))
		}
		pts[i] = geom.Point{X: x, Y: y}
	}
	return pts
}

// regionBounds returns stripe i's box.
func regionBounds(i int) (minX, minY, maxX, maxY float64) {
	return float64(i) / float64(rootGrid), 0, float64(i+1) / float64(rootGrid), 1
}

// quality is the refinement bound as isBad applies it: the angle and a
// guard band around its cosine.
type quality struct {
	minDeg, lo, hi float64
}

// guard is the half-width of the band around cos(minDeg) inside which
// isBad defers to geom.MinAngleDeg. It is far wider than the few ulps by
// which acos and the conversion to degrees can move an angle.
const guard = 1e-9

// bound is the refinement bound of every run.
var bound = newQuality(minAngleDeg)

// newQuality returns the bound for the angle deg.
func newQuality(deg float64) quality {
	c := math.Cos(deg * math.Pi / 180)
	return quality{minDeg: deg, lo: c - guard, hi: c + guard}
}

// isBad reports whether triangle t of m needs refinement.
func (q quality) isBad(m *geom.Mesh, t int) bool {
	if !m.Tris[t].Alive || m.HasSuperVertex(t) {
		return false
	}
	v := m.Tris[t].V
	return q.bad(m.Pts[v[0]], m.Pts[v[1]], m.Pts[v[2]])
}

// bad reports whether the smallest angle of triangle (pa, pb, pc), as
// geom.MinAngleDeg computes it, is below the bound. The smallest angle
// has the largest cosine, so a cosine clear of the guard band settles it
// without acos; inside the band, on a zero side or on a NaN (max
// propagates it) the verdict is MinAngleDeg's.
func (q quality) bad(pa, pb, pc geom.Point) bool {
	la := math.Sqrt(pb.Dist2(pc)) // side opposite pa
	lb := math.Sqrt(pa.Dist2(pc))
	lc := math.Sqrt(pa.Dist2(pb))
	if la != 0 && lb != 0 && lc != 0 {
		// The cosines as MinAngleDeg computes them, before its clamp.
		c := max((lb*lb+lc*lc-la*la)/(2*lb*lc),
			(la*la+lc*lc-lb*lb)/(2*la*lc),
			(la*la+lb*lb-lc*lc)/(2*la*lb))
		if c > q.hi {
			return true
		}
		if c < q.lo {
			return false
		}
	}
	return geom.MinAngleDeg(pa, pb, pc) < q.minDeg
}

// cavityRec records one refinement insert: the cavity size (work) and
// the cascade generation (0 = initial bad triangle; g+1 = created by a
// generation-g cavity). Cavities of the same generation are independent
// and refine in parallel, as in Galois-style optimistic DMR.
type cavityRec struct {
	Size int
	Gen  int
}

// refineStats records one region's refinement outcome.
type refineStats struct {
	pts      int
	inserts  int
	alive    int
	cavities []cavityRec
}

// refineRegion builds and refines one region's mesh.
func refineRegion(ri int, pts []geom.Point) refineStats {
	return refineWith(ri, pts, bound.isBad)
}

// refineWith is refineRegion with isBad as the test of a triangle.
func refineWith(ri int, pts []geom.Point, isBad func(m *geom.Mesh, t int) bool) refineStats {
	minX, minY, maxX, maxY := regionBounds(ri)
	m := geom.NewMesh(minX, minY, maxX, maxY, len(pts))
	for _, p := range pts {
		m.Insert(p)
	}
	st := refineStats{pts: len(pts)}
	// Seed the work queue with all bad triangles (cascade generation 0).
	type workItem struct {
		tri, gen int
	}
	var queue []workItem
	for t := range m.Tris {
		if isBad(m, t) {
			queue = append(queue, workItem{t, 0})
		}
	}
	cap := capFactor*len(pts) + 64
	for len(queue) > 0 && st.inserts < cap {
		it := queue[0]
		queue = queue[1:]
		if !isBad(m, it.tri) {
			continue // killed or fixed by an earlier cavity
		}
		v := m.Tris[it.tri].V
		cc, ok := geom.Circumcenter(m.Pts[v[0]], m.Pts[v[1]], m.Pts[v[2]])
		if !ok || cc.X <= minX || cc.X >= maxX || cc.Y <= minY || cc.Y >= maxY {
			continue // no boundary splitting across regions; skip
		}
		before := m.InsertSteps
		created, err := m.InsertFrom(cc, it.tri)
		if err != nil {
			continue
		}
		st.inserts++
		st.cavities = append(st.cavities, cavityRec{Size: m.InsertSteps - before, Gen: it.gen})
		for _, nt := range created {
			if isBad(m, nt) {
				queue = append(queue, workItem{nt, it.gen + 1})
			}
		}
	}
	st.alive = m.NumAlive()
	return st
}

// partition groups the points by region.
func partition(pts []geom.Point) [][]geom.Point {
	regs := make([][]geom.Point, rootGrid)
	for _, p := range pts {
		i := apps.Stripe(p.X, rootGrid)
		regs[i] = append(regs[i], p)
	}
	return regs
}

// regions returns the input points grouped by region, generating them on
// first use. A run only reads them: refineWith inserts them into its own
// mesh.
func (a *App) regions() [][]geom.Point {
	return a.parts.Get(func() [][]geom.Point { return partition(a.gen()) })
}

func checksum(stats []refineStats) uint64 {
	h := apps.NewFnv()
	for _, s := range stats {
		h.Add(uint64(s.pts))
		h.Add(uint64(s.inserts))
		h.Add(uint64(s.alive))
	}
	return h.Sum()
}

// Sequential implements apps.App.
func (a *App) Sequential() uint64 {
	regs := a.regions()
	stats := make([]refineStats, rootGrid)
	for i, pts := range regs {
		stats[i] = refineRegion(i, pts)
	}
	return checksum(stats)
}

// regionPlace maps region i to a place.
func regionPlace(i, places int) int { return i * places / rootGrid }

// Parallel implements apps.App.
func (a *App) Parallel(rt *core.Runtime) (uint64, error) {
	places := rt.Places()
	regs := a.regions()
	stats := make([]refineStats, rootGrid)
	err := rt.Run(func(ctx *core.Ctx) {
		ctx.Finish(func(c *core.Ctx) {
			for i, pts := range regs {
				i, pts := i, pts
				loc := task.Locality{
					Class:          task.Flexible,
					MigrationBytes: 16*len(pts) + 128,
				}
				c.AsyncLoc(regionPlace(i, places), loc, func(*core.Ctx) {
					stats[i] = refineRegion(i, pts) // own slot; Finish orders it before checksum
				})
			}
		})
	})
	if err != nil {
		return 0, fmt.Errorf("dmr: %w", err)
	}
	return checksum(stats), nil
}

// Trace implements apps.App: the real refinement runs per region; the
// region task (flexible, cost ∝ initial triangulation) parents a chain of
// cascade generations. All cavities of one generation are independent
// flexible tasks (they encapsulate their cavity); each carries a small
// sensitive bookkeeping child (adjacency updates against the region mesh)
// that is expensive to execute remotely — the task DistWS refuses to
// migrate but DistWS-NS happily steals.
func (a *App) Trace(places int) (*trace.Graph, error) {
	b := trace.NewBuilder(a.Name())
	regs := a.regions()
	for i, pts := range regs {
		st := refineRegion(i, pts)
		root := b.Root(trace.Task{
			HomeMode:  trace.HomeFixed,
			Home:      regionPlace(i, places),
			CostNS:    int64(8*len(pts) + 1),
			Flexible:  true,
			MigBytes:  16*len(pts) + 128,
			BaseMsgs:  1,
			BaseBytes: 64,
			Blocks:    regionBlocks(i, len(pts)),
			BlockReps: 6,
		})
		// Group cavities by cascade generation.
		maxGen := 0
		for _, c := range st.cavities {
			if c.Gen > maxGen {
				maxGen = c.Gen
			}
		}
		byGen := make([][]cavityRec, maxGen+1)
		for _, c := range st.cavities {
			byGen[c.Gen] = append(byGen[c.Gen], c)
		}
		prev := root
		ci := 0
		for _, gen := range byGen {
			if len(gen) == 0 {
				continue
			}
			// Generation coordinator: the mesh-commit point between waves.
			coord := b.Child(prev, trace.Task{
				HomeMode: trace.HomeInherit,
				CostNS:   int64(len(gen) + 1),
				Flexible: false,
				Blocks:   regionBlocks(i, len(pts)),
			})
			for _, c := range gen {
				cav := c.Size
				id := b.Child(coord, trace.Task{
					HomeMode: trace.HomeInherit,
					CostNS:   int64(cav*8 + 1),
					Flexible: true,
					MigBytes: 64 * cav,
					// Boundary write-back when the cavity ran off-home.
					MigMsgs: 2,
					// Mesh bookkeeping through the PGAS runtime.
					BaseMsgs:  1 + cav/4,
					BaseBytes: 32 * cav,
					Blocks:    cavityBlocks(i, ci),
					BlockReps: 6,
				})
				// Sensitive adjacency update against the region's mesh: if
				// stolen in isolation it must reference the mesh remotely.
				b.Child(id, trace.Task{
					HomeMode:  trace.HomeInherit,
					CostNS:    int64(cav*2 + 1),
					Flexible:  false,
					MigBytes:  32 * cav,
					MigMsgs:   cav + 2,
					Blocks:    regionBlocks(i, len(pts)),
					BlockReps: 4,
				})
				ci++
			}
			prev = coord
		}
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("dmr: %w", err)
	}
	apps.SpawnAtEnd(g)
	if _, err := apps.CalibrateFlexibleGranularity(g, granularityNS); err != nil {
		return nil, fmt.Errorf("dmr: %w", err)
	}
	return g, nil
}

func regionBlocks(ri, npts int) []uint64 {
	n := npts/64 + 1
	if n > 48 {
		n = 48
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(ri)<<32 | uint64(i)
	}
	return out
}

func cavityBlocks(ri, ci int) []uint64 {
	return []uint64{uint64(ri)<<32 | uint64(ci%48)}
}

var _ apps.App = (*App)(nil)
