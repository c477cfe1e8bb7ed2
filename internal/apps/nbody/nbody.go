// Package nbody implements the Cowichan n-Body benchmark with the
// Barnes–Hut algorithm (paper §VII: 220K bodies). Each step builds a
// quadtree and computes forces per body with the θ-criterion; bodies in
// dense regions traverse deeper subtrees, so equal-count body chunks have
// very different interaction counts — the irregular parallelism the paper
// highlights for this app. build inserts each body by one walk down a
// preallocated node slab and lays the tree out once, in depth-first
// preorder with a skip link per cell, so each body's force is one loop
// over a flat array, with no recursion, in the recursion's order.
//
// Force chunks are locality-flexible: they carry their bodies (one copy)
// and read the globally shared tree, matching the paper's observation
// that n-Body benefits strongly from selective distributed stealing
// (19% at 128 workers).
package nbody

import (
	"fmt"
	"math"
	"slices"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/task"
	"distws/internal/trace"
)

// Body is a point mass with velocity.
type Body struct {
	X, Y, VX, VY, M float64
}

// App configures one n-Body instance.
type App struct {
	n         int   // bodies (paper scale: 220_000)
	steps     int   // leapfrog steps
	seed      int64 // drives the initial distribution
	chunkSize int   // bodies per force task

	start apps.Input[[]Body] // gen's bodies; every run integrates a copy
}

const (
	// theta is the Barnes–Hut opening angle (0.5 in the paper era).
	theta = 0.5
	// granularityNS is the Table I calibration target: 623 ms.
	granularityNS = 623_000_000
)

// New returns an n-Body app over n bodies for steps steps.
func New(n, steps int, seed int64) *App {
	return &App{n: n, steps: steps, seed: seed, chunkSize: max(n/256, 32)}
}

// Name implements apps.App.
func (a *App) Name() string { return "nbody" }

// gen produces a clustered body distribution: a dense core plus a sparse
// halo, sorted by x so index chunks map to spatial stripes.
func (a *App) gen() []Body {
	bodies := make([]Body, a.n)
	for i := range bodies {
		h := apps.Mix(uint64(a.seed), uint64(i))
		var x, y float64
		if h%10 < 7 {
			// Dense core around (0.3, 0.3).
			r := 0.08 * math.Sqrt(apps.Unit(apps.Mix(h, 1)))
			th := 2 * math.Pi * apps.Unit(apps.Mix(h, 2))
			x, y = 0.3+r*math.Cos(th), 0.3+r*math.Sin(th)
		} else {
			// Sparse halo over the whole domain.
			x, y = apps.Unit(apps.Mix(h, 3)), apps.Unit(apps.Mix(h, 4))
		}
		bodies[i] = Body{X: x, Y: y, M: 0.5 + apps.Unit(apps.Mix(h, 5))}
	}
	apps.SortX(bodies, func(b *Body) float64 { return b.X })
	return bodies
}

// node is a quadtree node as the insert walk sees it.
type node struct {
	x, y, size float64 // square cell: lower-left corner and side
	body       int     // body index for leaves, -1 otherwise
	kids       [4]int32
	n          int // bodies under this node
}

// cell is a node with mass as the force walk sees it. The walk array
// holds the tree in depth-first preorder, children in quadrant order, so
// a cell's subtree is the run walk[i:next].
type cell struct {
	cmx, cmy, mass float64 // centre of mass
	size2          float64 // side squared
	leaf           int32   // body index of a one-body leaf, else multiLeaf or inner
	next           int32   // index just past this cell's subtree
}

// Leaf codes of a cell that is not a one-body leaf.
const (
	inner     = int32(-1) // has children
	multiLeaf = int32(-2) // a maxDepth leaf holding coincident bodies
)

// tree is a quadtree over the unit square: the node slab the bodies are
// inserted into and the walk array force reads.
type tree struct {
	nodes []node
	walk  []cell
}

const noKid = int32(-1)

func newNode(x, y, size float64) node {
	return node{x: x, y: y, size: size, body: -1, kids: [4]int32{noKid, noKid, noKid, noKid}}
}

// build constructs the quadtree for the bodies. Each body is inserted
// by one walk down from the root into a node slab preallocated at two
// nodes per body, which generated inputs stay under (append grows it
// past that). A body that meets a resident pushes the resident into a
// new child first, then descends itself. The walk array is sized once,
// at one cell per node; the tree is returned by value, so the two slabs
// are build's only allocations.
func build(bodies []Body) tree {
	t := tree{nodes: make([]node, 1, 2*len(bodies)+1)}
	t.nodes[0] = newNode(0, 0, 1)
	for bi := range bodies {
		t.insert(bodies, bi)
	}
	t.walk = make([]cell, 0, len(t.nodes))
	t.summarize(0, bodies)
	return t
}

// quadrant returns which child quadrant of nd contains (x, y).
func (nd *node) quadrant(x, y float64) int {
	q := 0
	if x >= nd.x+nd.size/2 {
		q |= 1
	}
	if y >= nd.y+nd.size/2 {
		q |= 2
	}
	return q
}

const maxDepth = 48

// insert adds body bi to the tree, walking down from the root.
func (t *tree) insert(bodies []Body, bi int) {
	b := &bodies[bi]
	for ni, depth := 0, 0; ; depth++ {
		nd := &t.nodes[ni]
		nd.n++
		if nd.n == 1 {
			nd.body = bi
			return
		}
		if depth >= maxDepth {
			// Coincident points: keep the node as a multi-body leaf.
			return
		}
		if old := nd.body; old >= 0 {
			// Push the resident into a new child; it is alone there.
			nd.body = -1
			k := &t.nodes[t.child(ni, bodies[old].X, bodies[old].Y)]
			k.n, k.body = 1, old
		}
		ni = t.child(ni, b.X, b.Y)
	}
}

// child returns the child of ni whose quadrant contains (x, y),
// appending it first if it does not exist.
func (t *tree) child(ni int, x, y float64) int {
	nd := &t.nodes[ni]
	q := nd.quadrant(x, y)
	if k := nd.kids[q]; k != noKid {
		return int(k)
	}
	half := nd.size / 2
	cx, cy := nd.x, nd.y
	if q&1 != 0 {
		cx += half
	}
	if q&2 != 0 {
		cy += half
	}
	t.nodes = append(t.nodes, newNode(cx, cy, half))
	k := len(t.nodes) - 1
	t.nodes[ni].kids[q] = int32(k)
	return k
}

// summarize computes centres of mass bottom-up and lays the subtree of
// ni out at the end of t.walk in preorder. A subtree without mass is left
// out: the walk would not enter it. It returns the subtree's mass and
// mass-weighted position sums.
func (t *tree) summarize(ni int, bodies []Body) (mass, mx, my float64) {
	nd := &t.nodes[ni]
	i := len(t.walk)
	t.walk = append(t.walk, cell{size2: nd.size * nd.size, leaf: inner})
	var cmx, cmy float64
	if nd.body >= 0 {
		b := &bodies[nd.body]
		t.walk[i].leaf = int32(nd.body)
		if nd.n > 1 {
			t.walk[i].leaf = multiLeaf
		}
		mass, cmx, cmy = b.M, b.X, b.Y
		mx, my = cmx*mass, cmy*mass
	} else {
		for _, k := range nd.kids {
			if k == noKid {
				continue
			}
			km, kx, ky := t.summarize(int(k), bodies)
			mass += km
			mx += kx
			my += ky
		}
		if mass > 0 {
			cmx, cmy = mx/mass, my/mass
		}
	}
	if mass == 0 {
		t.walk = t.walk[:i]
		return mass, mx, my
	}
	c := &t.walk[i]
	c.cmx, c.cmy, c.mass = cmx, cmy, mass
	c.next = int32(len(t.walk))
	return mass, mx, my
}

// force computes the acceleration on body bi with the θ-criterion,
// returning (ax, ay, interactions). It walks the preorder array: a cell
// it accepts as a point mass, a leaf and bi itself are passed over by
// jumping to next, an opened cell steps into its first child. The visit
// order, and so every sum, is a depth-first recursion's.
func (t *tree) force(bodies []Body, bi int, theta float64) (float64, float64, int) {
	const soft = 1e-4
	b := bodies[bi]
	self, theta2 := int32(bi), theta*theta
	var ax, ay float64
	inter := 0
	w := t.walk
	for i := 0; i < len(w); {
		c := &w[i]
		dx, dy := c.cmx-b.X, c.cmy-b.Y
		d2 := dx*dx + dy*dy + soft
		if c.leaf == inner && !(c.size2 < theta2*d2) {
			i++ // too close: open it
			continue
		}
		i = int(c.next)
		if c.leaf == self {
			continue
		}
		// Leaf or far enough: treat as a point mass.
		inv := 1 / (d2 * math.Sqrt(d2))
		ax += c.mass * dx * inv
		ay += c.mass * dy * inv
		inter++
	}
	return ax, ay, inter
}

// forceChunk computes accelerations for bodies[lo:hi), returning the
// total interaction count (the chunk's work units).
func (a *App) forceChunk(t *tree, bodies []Body, ax, ay []float64, lo, hi int) int {
	total := 0
	for i := lo; i < hi; i++ {
		x, y, n := t.force(bodies, i, theta)
		ax[i], ay[i] = x, y
		total += n
	}
	return total
}

// integrate advances bodies[lo:hi) one leapfrog step, clamping to the
// unit square.
func integrate(bodies []Body, ax, ay []float64, lo, hi int) {
	const dt = 1e-3
	for i := lo; i < hi; i++ {
		bodies[i].VX += ax[i] * dt
		bodies[i].VY += ay[i] * dt
		bodies[i].X += bodies[i].VX * dt
		bodies[i].Y += bodies[i].VY * dt
		if bodies[i].X < 0 {
			bodies[i].X, bodies[i].VX = 0, -bodies[i].VX
		}
		if bodies[i].X >= 1 {
			bodies[i].X, bodies[i].VX = 0.999999, -bodies[i].VX
		}
		if bodies[i].Y < 0 {
			bodies[i].Y, bodies[i].VY = 0, -bodies[i].VY
		}
		if bodies[i].Y >= 1 {
			bodies[i].Y, bodies[i].VY = 0.999999, -bodies[i].VY
		}
	}
}

func checksum(bodies []Body) uint64 {
	h := apps.NewFnv()
	for i := range bodies {
		h.AddFloat(bodies[i].X)
		h.AddFloat(bodies[i].Y)
	}
	return h.Sum()
}

// bodies returns a copy of the initial bodies, generating them on first
// use.
func (a *App) bodies() []Body { return slices.Clone(a.start.Get(a.gen)) }

// run executes the simulation with a pluggable chunk executor.
func (a *App) run(eachStep func(t *tree, bodies []Body, ax, ay []float64, chunks [][2]int)) uint64 {
	bodies := a.bodies()
	ax := make([]float64, a.n)
	ay := make([]float64, a.n)
	chunks := apps.Chunks(a.n, a.chunkSize)
	for s := 0; s < a.steps; s++ {
		t := build(bodies)
		eachStep(&t, bodies, ax, ay, chunks)
		integrate(bodies, ax, ay, 0, a.n)
	}
	return checksum(bodies)
}

// Sequential implements apps.App.
func (a *App) Sequential() uint64 {
	return a.run(func(t *tree, bodies []Body, ax, ay []float64, chunks [][2]int) {
		for _, ch := range chunks {
			a.forceChunk(t, bodies, ax, ay, ch[0], ch[1])
		}
	})
}

// Parallel implements apps.App.
func (a *App) Parallel(rt *core.Runtime) (uint64, error) {
	places := rt.Places()
	var sum uint64
	err := rt.Run(func(ctx *core.Ctx) {
		sum = a.run(func(t *tree, bodies []Body, ax, ay []float64, chunks [][2]int) {
			ctx.Finish(func(c *core.Ctx) {
				for _, ch := range chunks {
					ch := ch
					home := apps.Stripe(bodies[ch[0]].X, places)
					loc := task.Locality{
						Class:          task.Flexible,
						MigrationBytes: 40 * (ch[1] - ch[0]),
					}
					c.AsyncLoc(home, loc, func(*core.Ctx) {
						a.forceChunk(t, bodies, ax, ay, ch[0], ch[1])
					})
				}
			})
		})
	})
	if err != nil {
		return 0, fmt.Errorf("nbody: %w", err)
	}
	return sum, nil
}

// Trace implements apps.App: the real simulation runs and each force
// chunk becomes a flexible task whose cost is its measured interaction
// count; a tree-build task per step (sensitive, place 0) parents the
// step's chunks.
func (a *App) Trace(places int) (*trace.Graph, error) {
	b := trace.NewBuilder(a.Name())
	prevBuild := -1
	a.run(func(t *tree, bodies []Body, ax, ay []float64, chunks [][2]int) {
		buildTask := trace.Task{
			HomeMode: trace.HomeFixed,
			Home:     0,
			CostNS:   int64(a.n), // tree build ~ O(n log n); n is fine at trace scale
			Flexible: false,
			// Broadcasting the tree summary to every place.
			BaseMsgs:  places - 1,
			BaseBytes: 64 * (places - 1),
		}
		var bt int
		if prevBuild < 0 {
			bt = b.Root(buildTask)
		} else {
			bt = b.Child(prevBuild, buildTask)
		}
		prevBuild = bt
		for ci, ch := range chunks {
			inter := a.forceChunk(t, bodies, ax, ay, ch[0], ch[1])
			sz := ch[1] - ch[0]
			fc := b.Child(bt, trace.Task{
				HomeMode: trace.HomeFixed,
				Home:     apps.Stripe(bodies[ch[0]].X, places),
				CostNS:   int64(inter + sz),
				Flexible: true,
				MigBytes: 40 * sz,
				// Remote tree reads when executed off-home: a fraction of
				// traversals miss the replicated top levels.
				MigMsgs:   inter / 200,
				BaseMsgs:  1 + sz/256, // publishing updated accelerations
				BaseBytes: 16 * sz,
				Blocks:    chunkBlocks(ci, sz),
				BlockReps: 4,
			})
			// Leapfrog integration of the chunk: locality-sensitive — it
			// writes the chunk's bodies in place, so executing it away
			// from the bodies means a remote reference per few bodies.
			b.Child(fc, trace.Task{
				HomeMode:  trace.HomeInherit,
				CostNS:    int64(sz/4 + 1),
				Flexible:  false,
				MigBytes:  40 * sz,
				MigMsgs:   sz/16 + 2,
				Blocks:    chunkBlocks(ci, sz),
				BlockReps: 2,
			})
		}
	})
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("nbody: %w", err)
	}
	// Chunks of step s spawn at the end of the build task; the next build
	// spawns after this one's chunks are modelled via its own SpawnFrac 1.
	apps.SpawnAtEnd(g)
	if _, err := apps.CalibrateFlexibleGranularity(g, granularityNS); err != nil {
		return nil, fmt.Errorf("nbody: %w", err)
	}
	return g, nil
}

func chunkBlocks(ci, sz int) []uint64 {
	n := sz/128 + 1
	if n > 48 {
		n = 48
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(ci)<<20 | uint64(i)
	}
	return out
}

var _ apps.App = (*App)(nil)
