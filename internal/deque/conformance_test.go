package deque

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConformance is the one concurrent contract test every kind behind
// New must pass: an owner doing a seeded mix of Push bursts and owner
// takes against three thieves, over many short rounds with more Ps than
// CPUs, so that a taker is regularly descheduled between its loads and its
// store.
//
// The strict kinds must deliver every element exactly once. The relaxed
// kind must deliver every element at least once; a per-element counter
// stands in for the claim flag internal/core dedups with. On every kind a
// sequential drain by Steal alone must then empty the queue: a Steal that
// reports empty with elements behind a hole strands them.
func TestConformance(t *testing.T) {
	shapes := []conformanceShape{
		// One push, then perhaps one owner take: the window stays a few
		// elements deep, so owner and thieves contend for the same ones
		// while the indices wrap the 8-slot buffer a hundred times over.
		{name: "tight", rounds: 60, maxBurst: 1, maxTakes: 2},
		// Bursts past the initial capacity force grows under the thieves.
		{name: "bursty", rounds: 30, maxBurst: 40, maxTakes: 12},
		{name: "stale-top", rounds: 20, maxBurst: 40, maxTakes: 12, staleTop: true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2*runtime.NumCPU() + conformanceThieves))
	for _, k := range Kinds() {
		for _, s := range shapes {
			if s.staleTop && k != KindRelaxed {
				continue
			}
			t.Run(k.String()+"/"+s.name, func(t *testing.T) {
				for seed := int64(0); seed < int64(s.rounds) && !t.Failed(); seed++ {
					conformanceRound(t, k, seed, s)
					runtime.Gosched()
				}
			})
		}
	}
}

// conformanceShape is one owner behaviour: rounds rounds of conformanceN
// elements, pushed in bursts of 1..maxBurst with 0..maxTakes-1 owner takes
// after each.
type conformanceShape struct {
	name               string
	rounds             int
	maxBurst, maxTakes int
	// staleTop throws top back to zero mid-round, the store a taker
	// descheduled since the queue's first element would make. Only the
	// relaxed kind admits it: the strict kinds publish a take by CAS.
	staleTop bool
}

const conformanceN, conformanceThieves = 1000, 3

func conformanceRound(t *testing.T, k Kind, seed int64, s conformanceShape) {
	const n = conformanceN
	q := New[int](k)
	rng := rand.New(rand.NewSource(seed))
	delivered := make([]atomic.Int32, n)
	record := func(v int) { delivered[v].Add(1) }

	var wg sync.WaitGroup
	var stop atomic.Bool
	for th := 0; th < conformanceThieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if v, ok := q.Steal(); ok {
					record(v)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	for next := 0; next < n; {
		for burst := 1 + rng.Intn(s.maxBurst); burst > 0 && next < n; burst-- {
			q.Push(next)
			next++
			if s.staleTop && next == n/2 {
				q.(*Relaxed[int]).top.Store(0)
			}
		}
		for takes := rng.Intn(s.maxTakes); takes > 0; takes-- {
			if v, ok := q.Pop(); ok {
				record(v)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	for {
		v, ok := q.Steal()
		if !ok {
			break
		}
		record(v)
	}
	if q.Len() != 0 {
		t.Errorf("seed %d: Len = %d after a drain by Steal", seed, q.Len())
	}

	lost, dups := 0, 0
	for i := range delivered {
		switch c := delivered[i].Load(); {
		case c == 0:
			lost++
		case c > 1:
			dups += int(c - 1)
		}
	}
	if lost > 0 {
		t.Errorf("seed %d: %d of %d elements never delivered", seed, lost, n)
	}
	if k != KindRelaxed && dups > 0 {
		t.Errorf("seed %d: %d duplicate deliveries from a strict kind", seed, dups)
	}
}
