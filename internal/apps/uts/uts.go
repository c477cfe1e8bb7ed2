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
	// RootKids is the root's branching factor.
	RootKids int
	// Warmup is the depth below which nodes branch richly (mean 2);
	// beyond it branching drops to mean 0.5, so the tree dies out.
	Warmup int
	// MaxNodes caps generation (safety bound, also bounds traces).
	MaxNodes int
	// Seed drives the tree shape.
	Seed int64
	// NodeCostNS is the per-node virtual work in the trace.
	NodeCostNS int64

	nodes apps.Input[int] // walk's count, read by every Parallel
}

// New returns a UTS instance.
func New(rootKids, warmup, maxNodes int, seed int64) *App {
	return &App{
		RootKids:   rootKids,
		Warmup:     warmup,
		MaxNodes:   maxNodes,
		Seed:       seed,
		NodeCostNS: 20_000, // fine-grained: 20µs per node
	}
}

// Name implements apps.App.
func (a *App) Name() string { return "uts" }

// kids returns the number of children of node id at the given depth.
func (a *App) kids(id uint64, depth int) int {
	h := apps.Mix(uint64(a.Seed), id)
	if depth == 0 {
		return a.RootKids
	}
	if depth < a.Warmup {
		return int(h % 5) // mean 2: supercritical growth
	}
	return int(h % 2) // mean 0.5: subcritical tail
}

// childID derives child i's id from its parent's.
func childID(id uint64, i int) uint64 { return apps.Mix(id, uint64(i)+1) }

// node is one tree node: a stack frame of the walks below and, in
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

// Sequential implements apps.App: iterative DFS counting nodes.
func (a *App) Sequential() uint64 {
	stack := []node{{1, 0}}
	count := 0
	h := apps.NewFnv()
	for len(stack) > 0 && count < a.MaxNodes {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		h.Add(nodeWork(f.id))
		for i := 0; i < a.kids(f.id, f.depth); i++ {
			stack = append(stack, node{childID(f.id, i), f.depth + 1})
		}
	}
	h.Add(uint64(count))
	return h.Sum()
}

// Count returns just the number of tree nodes (bounded by MaxNodes),
// walking the tree on the first call only.
func (a *App) Count() int { return a.nodes.Get(a.walk) }

// walk counts the tree's nodes (bounded by MaxNodes).
func (a *App) walk() int {
	stack := []node{{1, 0}}
	count := 0
	for len(stack) > 0 && count < a.MaxNodes {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for i := 0; i < a.kids(f.id, f.depth); i++ {
			stack = append(stack, node{childID(f.id, i), f.depth + 1})
		}
	}
	return count
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
// order-dependent, so Parallel requires MaxNodes to exceed the tree size;
// New's defaults do).
func (a *App) Parallel(rt *core.Runtime) (uint64, error) {
	total := a.Count()
	if total >= a.MaxNodes {
		return 0, fmt.Errorf("uts: tree hit the MaxNodes cap (%d); raise it for parallel runs", a.MaxNodes)
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
	stack := []node{{1, 0}}
	count := 0
	var x uint64
	for len(stack) > 0 && count < a.MaxNodes {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		x ^= nodeWork(f.id)
		for i := 0; i < a.kids(f.id, f.depth); i++ {
			stack = append(stack, node{childID(f.id, i), f.depth + 1})
		}
	}
	h := apps.NewFnv()
	h.Add(x)
	h.Add(uint64(count))
	return h.Sum()
}

// Trace implements apps.App: the whole tree rooted at place 0, every node
// a flexible task of NodeCostNS, children homed wherever their parent
// ran. This is the §X configuration for the Random/Lifeline/DistWS
// comparison.
func (a *App) Trace(places int) (*trace.Graph, error) {
	b := trace.NewBuilder(a.Name())
	type frame struct {
		id     uint64
		depth  int
		parent int // trace task id of parent, -1 for root
	}
	mk := func(first bool) trace.Task {
		t := trace.Task{
			HomeMode: trace.HomeInherit,
			CostNS:   a.NodeCostNS,
			Flexible: true,
			MigBytes: 64,
		}
		if first {
			t.HomeMode = trace.HomeFixed
			t.Home = 0
		}
		return t
	}
	stack := []frame{{1, 0, -1}}
	count := 0
	for len(stack) > 0 && count < a.MaxNodes {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var tid int
		if f.parent < 0 {
			tid = b.Root(mk(true))
		} else {
			tid = b.Child(f.parent, mk(false))
		}
		count++
		for i := 0; i < a.kids(f.id, f.depth); i++ {
			stack = append(stack, frame{childID(f.id, i), f.depth + 1, tid})
		}
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("uts: %w", err)
	}
	_ = places
	return g, nil
}

var _ apps.App = (*App)(nil)
