// Package uts implements Unbalanced Tree Search (paper §X), the benchmark
// used to compare DistWS against randomized work stealing and
// lifeline-based global load balancing. The tree is generated by a
// deterministic splittable hash: a node's child count depends on its id
// and depth, giving the extreme, unpredictable imbalance UTS is known
// for. Every task is locality-flexible — UTS has no data locality — which
// exercises the paper's observation that DistWS adds no overhead when all
// tasks are flexible.
package uts

import (
	"fmt"
	"sync/atomic"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/trace"
)

// App configures one UTS instance.
type App struct {
	rootKids int   // the root's branching factor
	warmup   int   // depth below which nodes branch richly (mean 2), then mean 0.5
	maxNodes int   // generation cap (safety bound, also bounds traces)
	seed     int64 // drives the tree shape

	nodes apps.Input[int] // dfs's count, read by every Parallel
}

// nodeCostNS is the per-node virtual work in the trace: fine-grained.
const nodeCostNS = 20_000

// New returns a UTS instance: the root has rootKids children, nodes
// shallower than warmup branch richly (mean 2) and deeper ones die out
// (mean 0.5), and every walk stops after maxNodes nodes.
func New(rootKids, warmup, maxNodes int, seed int64) *App {
	return &App{rootKids: rootKids, warmup: warmup, maxNodes: maxNodes, seed: seed}
}

// Name implements apps.App.
func (a *App) Name() string { return "uts" }

// kids returns the number of children of node id at the given depth.
func (a *App) kids(id uint64, depth int) int {
	h := apps.Mix(uint64(a.seed), id)
	if depth == 0 {
		return a.rootKids
	}
	if depth < a.warmup {
		return int(h % 5) // mean 2: supercritical growth
	}
	return int(h % 2) // mean 0.5: subcritical tail
}

// childID derives child i's id from its parent's.
func childID(id uint64, i int) uint64 { return apps.Mix(id, uint64(i)+1) }

// node is one tree node: the core of a frame of dfs's stack and, in
// Parallel, a bag item of 16 bytes.
type node struct {
	id    uint64
	depth int
}

// nodeWork hashes the node — the "work" each UTS visit performs.
func nodeWork(id uint64) uint64 {
	h := id
	for i := 0; i < 16; i++ {
		h = apps.Mix(h, uint64(i))
	}
	return h
}

// dfs walks the tree depth first, one node at a time and at most
// maxNodes of them, and returns how many it visited. visit gets the tag
// visit returned for the node's parent (-1 at the root) and returns the
// node's own. Sequential, Count, ChecksumXOR and Trace are its visits.
func (a *App) dfs(visit func(parent int, id uint64) int) int {
	type frame struct {
		node
		parent int
	}
	stack := []frame{{node{1, 0}, -1}}
	count := 0
	for len(stack) > 0 && count < a.maxNodes {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		tag := visit(f.parent, f.id)
		for i := 0; i < a.kids(f.id, f.depth); i++ {
			stack = append(stack, frame{node{childID(f.id, i), f.depth + 1}, tag})
		}
	}
	return count
}

// Sequential implements apps.App: the DFS, hashing each node's work in
// visit order and then the node count.
func (a *App) Sequential() uint64 {
	h := apps.NewFnv()
	count := a.dfs(func(_ int, id uint64) int {
		h.Add(nodeWork(id))
		return 0
	})
	h.Add(uint64(count))
	return h.Sum()
}

// Count returns just the number of tree nodes (bounded by the cap),
// walking the tree on the first call only.
func (a *App) Count() int {
	return a.nodes.Get(func() int { return a.dfs(func(int, uint64) int { return 0 }) })
}

// sums is one bag run's share of the checksum: its node count and the XOR
// of its nodes' work.
type sums struct {
	n int64
	x uint64
}

// Parallel implements apps.App: the root visits the root node and seeds
// one core.Bag with its children; the runtime splits the bag between
// workers as they go idle. Every node still counts as one task. The
// checksum is order-independent (XOR) so it matches Sequential's set of
// nodes when the node cap is not hit (the cap makes visit *sets*
// order-dependent, so Parallel requires the cap to exceed the tree size;
// suite.UTS's does).
func (a *App) Parallel(rt *core.Runtime) (uint64, error) {
	total := a.Count()
	if total >= a.maxNodes {
		return 0, fmt.Errorf("uts: tree hit the node cap (%d); raise it for parallel runs", a.maxNodes)
	}
	var count atomic.Int64
	var hash atomic.Uint64
	step := func(_ *core.Ctx, nd node, bag []node, s *sums) []node {
		s.n++
		s.x ^= nodeWork(nd.id)
		for i, k := 0, a.kids(nd.id, nd.depth); i < k; i++ {
			bag = append(bag, node{childID(nd.id, i), nd.depth + 1})
		}
		return bag
	}
	flush := func(s sums) {
		count.Add(s.n)
		for {
			old := hash.Load()
			if hash.CompareAndSwap(old, old^s.x) {
				break
			}
		}
	}
	err := rt.Run(func(ctx *core.Ctx) {
		ctx.Finish(func(c *core.Ctx) {
			var root sums
			kids := step(c, node{1, 0}, nil, &root)
			flush(root)
			core.Bag(c, c.Place(), kids, step, flush)
		})
	})
	if err != nil {
		return 0, fmt.Errorf("uts: %w", err)
	}
	if got := int(count.Load()); got != total {
		return 0, fmt.Errorf("uts: visited %d nodes, want %d", got, total)
	}
	// Fold the XOR accumulator with the count, mirroring ChecksumXOR.
	h := apps.NewFnv()
	h.Add(hash.Load())
	h.Add(uint64(count.Load()))
	return h.Sum(), nil
}

// ChecksumXOR is the order-independent checksum Parallel produces; use it
// (not Sequential) as the reference for parallel runs.
func (a *App) ChecksumXOR() uint64 {
	var x uint64
	count := a.dfs(func(_ int, id uint64) int {
		x ^= nodeWork(id)
		return 0
	})
	h := apps.NewFnv()
	h.Add(x)
	h.Add(uint64(count))
	return h.Sum()
}

// Trace implements apps.App: the whole tree rooted at place 0, every node
// a flexible task of nodeCostNS, children homed wherever their parent
// ran. This is the §X configuration for the Random/Lifeline/DistWS
// comparison; the place count does not shape it.
func (a *App) Trace(int) (*trace.Graph, error) {
	b := trace.NewBuilder(a.Name())
	a.dfs(func(parent int, _ uint64) int {
		t := trace.Task{
			HomeMode: trace.HomeInherit,
			CostNS:   nodeCostNS,
			Flexible: true,
			MigBytes: 64,
		}
		if parent < 0 {
			t.HomeMode = trace.HomeFixed
			return b.Root(t)
		}
		return b.Child(parent, t)
	})
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("uts: %w", err)
	}
	return g, nil
}

var _ apps.App = (*App)(nil)
