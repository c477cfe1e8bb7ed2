// Package kmeans implements the Cowichan k-Means benchmark (paper §VII:
// k-means clustering into four clusters over 1000 iterations). Points are
// distributed across places by spatial stripe, so clustered inputs give
// places very different point counts — the static imbalance DistWS
// repairs by stealing flexible assignment chunks.
//
// The reference "sequential" implementation uses the same chunked
// reduction order as the parallel one, so both produce bit-identical
// centroids and checksums.
package kmeans

import (
	"fmt"
	"math"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/task"
	"distws/internal/trace"
)

// Point is a 2-D sample.
type Point struct{ X, Y float64 }

// App configures one k-Means instance.
type App struct {
	n         int   // points
	iters     int   // Lloyd iterations (the paper uses 1000)
	seed      int64 // drives the input distribution
	chunkSize int   // points per assignment task

	pts apps.Input[[]Point] // gen's points, shared read-only by every run
}

const (
	// clusters is k, the number of clusters (the paper uses 4).
	clusters = 4
	// granularityNS is the Table I calibration target: 383 ms.
	granularityNS = 383_000_000
)

// New returns a k-Means app over n points for iters iterations.
func New(n, iters int, seed int64) *App {
	return &App{n: n, iters: iters, seed: seed, chunkSize: max(n/256, 32)}
}

// Name implements apps.App.
func (a *App) Name() string { return "kmeans" }

// gen produces clustered points: several Gaussian-ish blobs of very
// different sizes, sorted by x so that stripe distribution over places is
// skewed.
func (a *App) gen() []Point {
	pts := make([]Point, 0, a.n)
	blobs := []struct {
		cx, cy, r float64
		weight    int
	}{
		{0.15, 0.2, 0.05, 5},
		{0.2, 0.7, 0.08, 1},
		{0.55, 0.4, 0.1, 2},
		{0.85, 0.8, 0.04, 8},
	}
	totalW := 0
	for _, b := range blobs {
		totalW += b.weight
	}
	i := 0
	for len(pts) < a.n {
		h := apps.Mix(uint64(a.seed), uint64(i))
		i++
		w := int(h % uint64(totalW))
		var blob int
		for bi, b := range blobs {
			if w < b.weight {
				blob = bi
				break
			}
			w -= b.weight
		}
		bl := blobs[blob]
		// Two hashes give a rough 2-D Gaussian via sum of uniforms.
		u1 := apps.Unit(apps.Mix(h, 1)) + apps.Unit(apps.Mix(h, 2)) - 1
		u2 := apps.Unit(apps.Mix(h, 3)) + apps.Unit(apps.Mix(h, 4)) - 1
		pts = append(pts, Point{bl.cx + bl.r*u1, bl.cy + bl.r*u2})
	}
	// Sort by x (stable, so deterministic) so stripes over places carry
	// skewed counts.
	apps.SortX(pts, func(p *Point) float64 { return p.X })
	return pts
}

// points returns the input points, generating them on first use.
func (a *App) points() []Point { return a.pts.Get(a.gen) }

// partial is one chunk's contribution to the new centroids.
type partial struct {
	sumX, sumY [clusters]float64
	count      [clusters]int64
}

// assignChunk assigns pts[lo:hi) to the nearest centroid and returns the
// chunk's partial. It accumulates in a local, so its caller writes the
// slice of partials, whose cache lines chunks share, once per chunk.
func assignChunk(pts []Point, cents []Point, lo, hi int) partial {
	var p partial
	for i := lo; i < hi; i++ {
		best, bestD := 0, math.MaxFloat64
		for k := 0; k < clusters; k++ {
			dx, dy := pts[i].X-cents[k].X, pts[i].Y-cents[k].Y
			if d := dx*dx + dy*dy; d < bestD {
				best, bestD = k, d
			}
		}
		p.sumX[best] += pts[i].X
		p.sumY[best] += pts[i].Y
		p.count[best]++
	}
	return p
}

// reduce folds parts, in chunk order, into new centroids, written over
// cents; an empty cluster keeps its centroid. It returns each cluster's
// point count.
func reduce(parts []partial, cents []Point) [clusters]int64 {
	var acc partial
	for i := range parts {
		for k := 0; k < clusters; k++ {
			acc.sumX[k] += parts[i].sumX[k]
			acc.sumY[k] += parts[i].sumY[k]
			acc.count[k] += parts[i].count[k]
		}
	}
	for k := 0; k < clusters; k++ {
		if acc.count[k] != 0 {
			cents[k] = Point{acc.sumX[k] / float64(acc.count[k]), acc.sumY[k] / float64(acc.count[k])}
		}
	}
	return acc.count
}

// initialCentroids picks K deterministic spread seeds.
func (a *App) initialCentroids(pts []Point) []Point {
	cents := make([]Point, clusters)
	for k := 0; k < clusters; k++ {
		cents[k] = pts[(k*len(pts))/clusters+len(pts)/(2*clusters)]
	}
	return cents
}

func (a *App) checksum(cents []Point, counts []int64) uint64 {
	h := apps.NewFnv()
	for k := range cents {
		h.AddFloat(cents[k].X)
		h.AddFloat(cents[k].Y)
		h.Add(uint64(counts[k]))
	}
	return h.Sum()
}

// run executes the algorithm with a pluggable chunk executor, so the
// sequential and parallel paths share every line of numeric code.
func (a *App) run(eachIter func(pts, cents []Point, chunks [][2]int, parts []partial)) uint64 {
	pts := a.points()
	cents := a.initialCentroids(pts)
	chunks := apps.Chunks(a.n, a.chunkSize)
	parts := make([]partial, len(chunks))
	var counts [clusters]int64
	for iter := 0; iter < a.iters; iter++ {
		eachIter(pts, cents, chunks, parts)
		counts = reduce(parts, cents)
	}
	return a.checksum(cents, counts[:])
}

// Sequential implements apps.App.
func (a *App) Sequential() uint64 {
	return a.run(func(pts, cents []Point, chunks [][2]int, parts []partial) {
		for ci, ch := range chunks {
			parts[ci] = assignChunk(pts, cents, ch[0], ch[1])
		}
	})
}

// Parallel implements apps.App.
func (a *App) Parallel(rt *core.Runtime) (uint64, error) {
	places := rt.Places()
	var sum uint64
	err := rt.Run(func(ctx *core.Ctx) {
		sum = a.run(func(pts, cents []Point, chunks [][2]int, parts []partial) {
			ctx.Finish(func(c *core.Ctx) {
				for ci, ch := range chunks {
					ci, ch := ci, ch
					home := apps.Stripe(pts[ch[0]].X, places)
					loc := task.Locality{
						Class:          task.Flexible,
						MigrationBytes: 16 * (ch[1] - ch[0]),
					}
					c.AsyncLoc(home, loc, func(*core.Ctx) {
						parts[ci] = assignChunk(pts, cents, ch[0], ch[1])
					})
				}
			})
		})
	})
	if err != nil {
		return 0, fmt.Errorf("kmeans: %w", err)
	}
	return sum, nil
}

// Trace implements apps.App: per iteration one flexible task per chunk
// (cost ∝ chunk×K distance evaluations), chained per chunk across
// iterations, plus a centroid-reduction task per iteration that exchanges
// messages with every place.
func (a *App) Trace(places int) (*trace.Graph, error) {
	b := trace.NewBuilder(a.Name())
	pts := a.points()
	chunks := apps.Chunks(a.n, a.chunkSize)
	prev := make([]int, len(chunks))
	prevReduce := -1
	for iter := 0; iter < a.iters; iter++ {
		for ci, ch := range chunks {
			sz := ch[1] - ch[0]
			t := trace.Task{
				HomeMode: trace.HomeFixed,
				Home:     apps.Stripe(pts[ch[0]].X, places),
				CostNS:   int64(sz * clusters),
				Flexible: true,
				MigBytes: 16 * sz,
				// Publishing the partial sums back to the reducer.
				BaseMsgs:  1,
				BaseBytes: 16 * clusters,
				Blocks:    chunkBlocks(ci, sz),
				BlockReps: 4,
			}
			if iter == 0 {
				prev[ci] = b.Root(t)
			} else {
				t.HomeMode = trace.HomeFixed // chunks stay with their stripe
				id := b.Child(prev[ci], t)
				prev[ci] = id
			}
		}
		// The reduction joins all partials; modelled as a sensitive task
		// at place 0 chained across iterations, gathering from and
		// broadcasting to every other place.
		rt := trace.Task{
			HomeMode:  trace.HomeFixed,
			Home:      0,
			CostNS:    int64(clusters * len(chunks)),
			Flexible:  false,
			BaseMsgs:  2 * (places - 1),
			BaseBytes: 32 * clusters * (places - 1),
		}
		if prevReduce < 0 {
			prevReduce = b.Root(rt)
		} else {
			prevReduce = b.Child(prevReduce, rt)
		}
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("kmeans: %w", err)
	}
	apps.SpawnAtEnd(g)
	if _, err := apps.CalibrateFlexibleGranularity(g, granularityNS); err != nil {
		return nil, fmt.Errorf("kmeans: %w", err)
	}
	return g, nil
}

func chunkBlocks(ci, sz int) []uint64 {
	n := sz/256 + 1
	if n > 32 {
		n = 32
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(ci)<<16 | uint64(i)
	}
	return out
}

var _ apps.App = (*App)(nil)
