package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/topology"
)

// tally is what a bag run of the test tree accumulates: its item count,
// the sum of the item ids and the XOR of their work.
type tally struct {
	items, sum int64
	x          uint64
}

func (t *tally) add(o tally) {
	t.items += o.items
	t.sum += o.sum
	t.x ^= o.x
}

// treeStep grows the heap-numbered binary tree below limit (item i has
// children 2i and 2i+1). Each item hashes its id a few times, so a bag
// lasts long enough for idle workers to take halves of it. wait, when
// non-nil, runs before every item.
func treeStep(limit int64, wait func(*Ctx)) func(*Ctx, int64, []int64, *tally) []int64 {
	return func(c *Ctx, id int64, bag []int64, t *tally) []int64 {
		if wait != nil {
			wait(c)
		}
		h := uint64(id)
		for i := 0; i < 16; i++ {
			h ^= h >> 31
			h *= 0x9e3779b97f4a7c15
		}
		t.items++
		t.sum += id
		t.x ^= h
		for _, k := range [2]int64{2 * id, 2*id + 1} {
			if k < limit {
				bag = append(bag, k)
			}
		}
		return bag
	}
}

// walkTree is the sequential reference: every seed's subtree through the
// same step, on one stack.
func walkTree(seeds []int64, limit int64) tally {
	step := treeStep(limit, nil)
	var t tally
	stack := append([]int64(nil), seeds...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = step(nil, id, stack[:len(stack)-1], &t)
	}
	return t
}

// runTree runs one Bag per seed, homed at home (-1: the root's place),
// and returns how many bag runs flushed. No item starts before every bag
// is spawned, so a crash the items trigger finds the later bags queued,
// not still to be spawned. It checks the flushed sums against walkTree
// and the task counts against the items: one task per item plus the root
// activity, spawned as often as executed.
func runTree(t *testing.T, rt *Runtime, seeds []int64, limit int64, home int, wait func(*Ctx)) (flushes int) {
	t.Helper()
	var (
		mu  sync.Mutex
		got tally
	)
	flush := func(s tally) {
		mu.Lock()
		got.add(s)
		flushes++
		mu.Unlock()
	}
	gate := make(chan struct{})
	step := treeStep(limit, func(c *Ctx) {
		<-gate
		if wait != nil {
			wait(c)
		}
	})
	before := rt.Metrics()
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			h := home
			if h < 0 {
				h = c.Place()
			}
			for _, s := range seeds {
				Bag(c, h, []int64{s}, step, flush)
			}
			close(gate)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := walkTree(seeds, limit); got != want {
		t.Fatalf("bags flushed %+v, want %+v", got, want)
	}
	after := rt.Metrics()
	spawned := after.TasksSpawned - before.TasksSpawned
	executed := after.TasksExecuted - before.TasksExecuted
	if executed != got.items+1 || spawned != executed {
		t.Fatalf("spawned %d, executed %d tasks; want both %d (one per item, plus the root)",
			spawned, executed, got.items+1)
	}
	return flushes
}

// TestBagConservesItems runs a bag on every worker-queue kind, shape and
// policy: every item runs exactly once, whatever splits and steals moved
// it, and the task counters read one task per item.
func TestBagConservesItems(t *testing.T) {
	shapes := []topology.Cluster{
		{Places: 2, WorkersPerPlace: 1},
		{Places: 1, WorkersPerPlace: 2},
		{Places: 4, WorkersPerPlace: 2},
	}
	for _, k := range deque.Kinds() {
		for _, cl := range shapes {
			for _, policy := range []sched.Kind{sched.DistWS, sched.X10WS, sched.RandomWS, sched.LifelineWS} {
				t.Run(fmt.Sprintf("%v/%dx%d/%v", k, cl.Places, cl.WorkersPerPlace, policy), func(t *testing.T) {
					rt := mustNew(t, Config{Cluster: cl, Policy: policy, Deque: k, Seed: 3})
					runTree(t, rt, []int64{1}, 4000, -1, nil)
				})
			}
		}
	}
}

// TestBagSplits holds the split rule to its purpose: with one worker per
// place, the only way the second place gets work is a split the first
// place's owner made, taken by a remote steal. The runtime is at rest
// before the bag starts (both workers parked, so the one that does not
// take the bag is published idle), and every item sleeps until both
// places have run one, so the steal cannot lose a race with the bag's end
// on a loaded host.
func TestBagSplits(t *testing.T) {
	rt := mustNew(t, Config{Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 1}, Policy: sched.DistWS})
	for rt.counters.FailedSteals.Load() < 4 {
		time.Sleep(100 * time.Microsecond)
	}
	var ran [2]atomic.Bool
	wait := func(c *Ctx) {
		ran[c.Place()].Store(true)
		if !(ran[0].Load() && ran[1].Load()) {
			time.Sleep(20 * time.Microsecond)
		}
	}
	flushes := runTree(t, rt, []int64{1}, 20_001, -1, wait)
	if s := rt.Metrics(); s.RemoteSteals == 0 || flushes < 2 {
		t.Fatalf("20 000 items on 2x1: %d remote steals, %d bag runs; want a split stolen", s.RemoteSteals, flushes)
	}
}

// TestBagSurvivesPlaceCrash crashes place 1 after three activities while
// it holds bags: the queued ones are re-homed and run at survivors, and
// the result stays exact. Every bag is homed at place 1, and an item
// running anywhere else waits for the crash, so the thieves hold at most
// a chunk each and place 1 keeps enough bags to reach its quota with some
// still queued.
func TestBagSurvivesPlaceCrash(t *testing.T) {
	rt := mustNew(t, Config{
		Cluster: chaosCluster(),
		Policy:  sched.DistWS,
		Seed:    7,
		Fault:   &fault.Plan{Crashes: []fault.Crash{{Place: 1, AfterTasks: 3}}},
	})
	victim := rt.places[1]
	wait := func(c *Ctx) {
		for c.Place() != victim.id && !victim.Dead() {
			time.Sleep(20 * time.Microsecond)
		}
	}
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(32 + i) // the 32 disjoint subtrees at depth 5
	}
	runTree(t, rt, seeds, 1<<14, victim.id, wait)
	if s := rt.Metrics(); s.PlacesLost != 1 || s.TasksReExecuted == 0 {
		t.Fatalf("PlacesLost = %d, TasksReExecuted = %d; want place 1 crashed with bags queued",
			s.PlacesLost, s.TasksReExecuted)
	}
}
