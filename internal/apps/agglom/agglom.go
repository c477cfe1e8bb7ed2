// Package agglom implements the Lonestar Agglomerative Clustering
// benchmark (paper §VII: 2M points clustered by building a hierarchical
// tree bottom-up). The algorithm is round-based mutual-nearest-neighbour
// merging: every round each active cluster finds its nearest neighbour
// (parallel, chunked) and mutual pairs merge (sequential, deterministic).
// Rounds shrink geometrically, so chunk counts and costs vary across the
// run, and clustered inputs give places skewed chunk loads.
//
// The runtime kernel finds neighbours by a sweep over the round's
// clusters sorted by X, exact against the all-pairs scan (same neighbour,
// same tie-break, same checksum). The trace keeps the all-pairs scan's
// distance evaluations as each chunk's cost: that is the paper app's
// cost model, so the modelled chunk costs and the kernel's differ.
package agglom

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/task"
	"distws/internal/trace"
)

// Cluster is an active cluster: centroid and size.
type Cluster struct {
	X, Y float64
	Size int
}

// App configures one clustering instance.
type App struct {
	n         int   // input points (paper scale: 2_000_000)
	seed      int64 // drives the input distribution
	chunkSize int   // clusters per nearest-neighbour task

	points apps.Input[[]Cluster] // gen's clusters, shared read-only by every run
}

const (
	// granularityNS is the Table I calibration target: 529 ms.
	granularityNS = 529_000_000
	// maxRounds bounds the merge rounds (safety; log2(n) suffices).
	maxRounds = 64
)

// New returns an agglomerative clustering app over n points.
func New(n int, seed int64) *App {
	return &App{n: n, seed: seed, chunkSize: max(n/128, 16)}
}

// Name implements apps.App.
func (a *App) Name() string { return "agglom" }

// gen produces clustered points (dense and sparse blobs).
func (a *App) gen() []Cluster {
	out := make([]Cluster, a.n)
	for i := range out {
		h := apps.Mix(uint64(a.seed), uint64(i))
		var x, y float64
		switch h % 8 {
		case 0, 1, 2, 3: // heavy blob left
			x, y = 0.2+0.1*apps.Unit(apps.Mix(h, 1)), 0.3+0.1*apps.Unit(apps.Mix(h, 2))
		case 4, 5: // medium blob right
			x, y = 0.75+0.08*apps.Unit(apps.Mix(h, 3)), 0.6+0.08*apps.Unit(apps.Mix(h, 4))
		default: // scattered
			x, y = apps.Unit(apps.Mix(h, 5)), apps.Unit(apps.Mix(h, 6))
		}
		out[i] = Cluster{X: x, Y: y, Size: 1}
	}
	return out
}

// input returns the input clusters, generating them on first use. A run
// only reads them: each merge round builds its survivors afresh.
func (a *App) input() []Cluster { return a.points.Get(a.gen) }

// round is one merge round's input to the nearest-neighbour scan: the
// active clusters, their indices sorted by X (ties by index), and each
// cluster's position in that order.
type round struct {
	act         []Cluster
	order, rank []int32
}

// newRound sorts act's indices by X once, for every chunk of the round.
func newRound(act []Cluster) round {
	r := round{act: act, order: make([]int32, len(act)), rank: make([]int32, len(act))}
	for i := range r.order {
		r.order[i] = int32(i)
	}
	slices.SortFunc(r.order, func(a, b int32) int {
		if c := cmp.Compare(act[a].X, act[b].X); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for p, i := range r.order {
		r.rank[i] = int32(p)
	}
	return r
}

// nnChunk finds, for each cluster in [lo,hi), the nearest other active
// cluster, ties broken by lower index, writing into nn. It sweeps out
// from the cluster's place in the X order, right then left, and stops a
// side at the first cluster with dx² > bestD: X is monotone along a
// side, so dx² is too, and d = dx² + dy² ≥ dx² however it rounds, so no
// cluster past the stop can be nearer or tied. The stop is strict, so a
// tied cluster with dy = 0 is still reached and the lower index wins;
// every nn[i] equals the all-pairs scan's. Each square is rounded on its
// own (the conversions), so no fused multiply-add moves d on any
// architecture or takes it below dx².
//
// It returns the all-pairs scan's distance evaluations, (hi-lo)·(n-1),
// not the sweep's: Trace's cost model (see the package doc).
func (r round) nnChunk(nn []int, lo, hi int) int {
	act, order := r.act, r.order
	for i := lo; i < hi; i++ {
		x, y := act[i].X, act[i].Y
		best, bestD := -1, math.MaxFloat64
		p := int(r.rank[i])
		for _, step := range [2]int{1, -1} {
			for s := p + step; s >= 0 && s < len(order); s += step {
				j := int(order[s])
				dx, dy := x-act[j].X, y-act[j].Y
				dx2 := float64(dx * dx)
				if dx2 > bestD {
					break
				}
				if d := dx2 + float64(dy*dy); d < bestD || (d == bestD && j < best) {
					best, bestD = j, d
				}
			}
		}
		nn[i] = best
	}
	return (hi - lo) * (len(act) - 1)
}

// mergeMutual merges mutual nearest-neighbour pairs (i<j, nn[i]=j,
// nn[j]=i), folding each merged cluster into h, and returns the next
// round's clusters plus the merge count. Clusters not in a mutual pair
// survive unchanged. Deterministic.
func mergeMutual(act []Cluster, nn []int, h *apps.Fnv1a) ([]Cluster, int) {
	merged := make([]bool, len(act))
	var next []Cluster
	merges := 0
	for i := range act {
		if merged[i] {
			continue
		}
		j := nn[i]
		if j > i && !merged[j] && nn[j] == i {
			si, sj := float64(act[i].Size), float64(act[j].Size)
			tot := si + sj
			nc := Cluster{
				X:    (act[i].X*si + act[j].X*sj) / tot,
				Y:    (act[i].Y*si + act[j].Y*sj) / tot,
				Size: act[i].Size + act[j].Size,
			}
			merged[i], merged[j] = true, true
			next = append(next, nc)
			merges++
			h.Add(uint64(nc.Size))
			h.AddFloat(nc.X)
			h.AddFloat(nc.Y)
			continue
		}
	}
	for i := range act {
		if !merged[i] {
			next = append(next, act[i])
		}
	}
	return next, merges
}

// run executes the clustering with a pluggable per-round chunk executor.
func (a *App) run(eachRound func(r round, nn []int, chunks [][2]int)) uint64 {
	act := a.input()
	h := apps.NewFnv()
	for rd := 0; len(act) > 1 && rd < maxRounds; rd++ {
		nn := make([]int, len(act))
		eachRound(newRound(act), nn, apps.Chunks(len(act), a.chunkSize))
		var merges int
		act, merges = mergeMutual(act, nn, &h)
		if merges == 0 {
			break // numerically stuck (coincident centroids); terminate
		}
	}
	h.Add(uint64(len(act)))
	return h.Sum()
}

// Sequential implements apps.App.
func (a *App) Sequential() uint64 {
	return a.run(func(r round, nn []int, chunks [][2]int) {
		for _, ch := range chunks {
			r.nnChunk(nn, ch[0], ch[1])
		}
	})
}

// Parallel implements apps.App.
func (a *App) Parallel(rt *core.Runtime) (uint64, error) {
	places := rt.Places()
	var sum uint64
	err := rt.Run(func(ctx *core.Ctx) {
		sum = a.run(func(r round, nn []int, chunks [][2]int) {
			ctx.Finish(func(c *core.Ctx) {
				for _, ch := range chunks {
					ch := ch
					loc := task.Locality{
						Class:          task.Flexible,
						MigrationBytes: 24 * (ch[1] - ch[0]),
					}
					c.AsyncLoc(apps.Stripe(r.act[ch[0]].X, places), loc, func(*core.Ctx) {
						r.nnChunk(nn, ch[0], ch[1])
					})
				}
			})
		})
	})
	if err != nil {
		return 0, fmt.Errorf("agglom: %w", err)
	}
	return sum, nil
}

// Trace implements apps.App: the real rounds are replayed; each chunk's
// nearest-neighbour scan is a flexible task whose cost is the all-pairs
// scan's distance evaluations. A sequential merge task per round (sensitive,
// place 0) parents the next round's chunks.
func (a *App) Trace(places int) (*trace.Graph, error) {
	b := trace.NewBuilder(a.Name())
	prevMerge := -1
	a.run(func(r round, nn []int, chunks [][2]int) {
		// The merge/coordination task for this round.
		mt := trace.Task{
			HomeMode:  trace.HomeFixed,
			Home:      0,
			CostNS:    int64(len(r.act)),
			Flexible:  false,
			BaseMsgs:  2 * (places - 1), // gather nn[], broadcast survivors
			BaseBytes: 8 * len(r.act),
		}
		var mid int
		if prevMerge < 0 {
			mid = b.Root(mt)
		} else {
			mid = b.Child(prevMerge, mt)
		}
		prevMerge = mid
		for _, ch := range chunks {
			work := r.nnChunk(nn, ch[0], ch[1])
			sz := ch[1] - ch[0]
			b.Child(mid, trace.Task{
				HomeMode:  trace.HomeFixed,
				Home:      apps.Stripe(r.act[ch[0]].X, places),
				CostNS:    int64(work + sz),
				Flexible:  true,
				MigBytes:  24 * sz,
				MigMsgs:   sz / 64, // remote reads of off-place centroids
				BaseMsgs:  1,
				BaseBytes: 8 * sz,
				Blocks:    spatialBlocks(r.act, ch[0], ch[1]),
				BlockReps: 4,
			})
		}
	})
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("agglom: %w", err)
	}
	apps.SpawnAtEnd(g)
	if _, err := apps.CalibrateFlexibleGranularity(g, granularityNS); err != nil {
		return nil, fmt.Errorf("agglom: %w", err)
	}
	return g, nil
}

// spatialBlocks maps a chunk's clusters to blocks by their position in a
// 64×64 grid: chunks over the same area share blocks across rounds, so a
// place that keeps processing its own region stays warm.
func spatialBlocks(act []Cluster, lo, hi int) []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for i := lo; i < hi && len(out) < 32; i++ {
		bx := uint64(act[i].X * 64)
		by := uint64(act[i].Y * 64)
		blk := bx<<8 | by
		if !seen[blk] {
			seen[blk] = true
			out = append(out, blk)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

var _ apps.App = (*App)(nil)
