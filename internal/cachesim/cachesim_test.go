package cachesim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	c := New(4)
	if _, ok := c.find(1); c.used != 0 || ok {
		t.Fatalf("new cache holds %d blocks", c.used)
	}
	if c.Touch(1) {
		t.Fatalf("first touch should miss")
	}
	if !c.Touch(1) {
		t.Fatalf("second touch should hit")
	}
	if hits, misses := c.TouchAll([]uint64{1, 2}, 1); hits != 1 || misses != 1 {
		t.Fatalf("TouchAll = %d hits %d misses, want 1/1", hits, misses)
	}
	if c.used != 2 {
		t.Fatalf("%d blocks resident, want 2", c.used)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // 1 is now MRU, 2 is LRU
	c.Touch(3) // evicts 2
	if _, ok := c.find(1); !ok {
		t.Fatalf("block 1 should survive (was MRU)")
	}
	if _, ok := c.find(2); ok {
		t.Fatalf("block 2 should have been evicted (was LRU)")
	}
	if _, ok := c.find(3); !ok {
		t.Fatalf("block 3 should be resident")
	}
	if c.used != 2 {
		t.Fatalf("%d blocks resident, want 2", c.used)
	}
}

func TestTouchAll(t *testing.T) {
	c := New(8)
	hits, misses := c.TouchAll([]uint64{1, 2, 3, 1}, 1)
	if hits != 1 || misses != 3 {
		t.Fatalf("TouchAll = %d hits %d misses, want 1/3", hits, misses)
	}
}

func TestCapacityOne(t *testing.T) {
	c := New(1)
	c.Touch(1)
	c.Touch(2)
	_, has1 := c.find(1)
	_, has2 := c.find(2)
	if has1 || !has2 {
		t.Fatalf("capacity-1 cache should hold only the last block")
	}
	if !c.Touch(2) {
		t.Fatalf("resident block should hit")
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(0) should panic")
		}
	}()
	New(0)
}

// Property: the resident count never exceeds capacity and residency agrees
// with a model map maintained under the same LRU discipline.
func TestLRUModelEquivalence(t *testing.T) {
	f := func(blocks []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := New(capacity)
		// Reference model: ordered slice, most recent first.
		var model []uint64
		touchModel := func(b uint64) bool {
			for i, x := range model {
				if x == b {
					model = append(model[:i], model[i+1:]...)
					model = append([]uint64{b}, model...)
					return true
				}
			}
			model = append([]uint64{b}, model...)
			if len(model) > capacity {
				model = model[:capacity]
			}
			return false
		}
		for _, raw := range blocks {
			// 64 keys over a table of at most 32 slots: probe runs collide,
			// wrap, and are shifted back by every eviction. Half carry the
			// simulator's place alias in the top byte.
			b := uint64(raw%32) | uint64(raw>>7)<<56
			gotHit := c.Touch(b)
			wantHit := touchModel(b)
			if gotHit != wantHit {
				return false
			}
			if int(c.used) > capacity || int(c.used) != len(model) {
				return false
			}
		}
		for b := uint64(0); b < 32; b++ {
			for _, k := range []uint64{b, b | 1<<56} {
				if _, ok := c.find(k); ok != slices.Contains(model, k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a working set that fits in the cache converges to a 100% hit
// rate after the first pass.
func TestResidentWorkingSetHits(t *testing.T) {
	c := New(64)
	ws := make([]uint64, 64)
	for i := range ws {
		ws[i] = uint64(i)
	}
	c.TouchAll(ws, 1) // cold pass
	for pass := 0; pass < 3; pass++ {
		hits, misses := c.TouchAll(ws, 1)
		if misses != 0 || hits != len(ws) {
			t.Fatalf("pass %d: %d hits %d misses, want all hits", pass, hits, misses)
		}
	}
}

// lru lists the resident blocks from most to least recently used.
func (c *Cache) lru() []uint64 {
	var order []uint64
	for i := c.head; i >= 0; i = c.slab[i].next {
		order = append(order, c.slab[i].block)
	}
	return order
}

// TouchAll's pass rule against its oracle, the same passes replayed one
// block at a time: hits, misses and the whole LRU order afterwards must
// agree for footprints either side of the capacity (512), with and
// without duplicates, over cold, warm and full caches.
func TestTouchAllPassRuleMatchesReplay(t *testing.T) {
	const capacity = 512
	rng := rand.New(rand.NewSource(7))
	// id draws one of ids block IDs, half of them carrying the
	// simulator's place alias in the top byte.
	id := func(ids int) uint64 {
		v := uint64(rng.Intn(ids))
		return v>>1 | (v&1)*uint64(1+rng.Intn(3))<<56
	}
	footprint := func(n int, dups bool) []uint64 {
		blocks := make([]uint64, 0, n)
		if dups {
			for range n {
				blocks = append(blocks, id(n/2+1))
			}
			return blocks
		}
		// n distinct IDs, every other one aliased, in a shuffled order.
		for i := range n {
			blocks = append(blocks, uint64(i/2)|uint64(i&1)<<56)
		}
		rng.Shuffle(n, func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		return blocks
	}
	prefill := map[string]int{"cold": 0, "warm": 300, "full": 1500}
	for _, n := range []int{0, 1, 511, 512, 513, 1000} {
		for _, dups := range []bool{false, true} {
			for _, state := range []string{"cold", "warm", "full"} {
				for passes := 1; passes <= 6; passes++ {
					blocks := footprint(n, dups)
					got, want := New(capacity), New(capacity)
					for range prefill[state] {
						b := id(2 * capacity)
						got.Touch(b)
						want.Touch(b)
					}
					gh, gm := got.TouchAll(blocks, passes)
					var wh, wm int
					for range passes {
						for _, b := range blocks {
							if want.Touch(b) {
								wh++
							} else {
								wm++
							}
						}
					}
					where := fmt.Sprintf("%d blocks (dups %v), %s cache, %d passes", n, dups, state, passes)
					if gh != wh || gm != wm {
						t.Fatalf("%s: %d hits %d misses, replay %d/%d", where, gh, gm, wh, wm)
					}
					if !slices.Equal(got.lru(), want.lru()) || got.used != want.used {
						t.Fatalf("%s: LRU order differs from the replay's", where)
					}
				}
			}
		}
	}
}

func BenchmarkTouchResident(b *testing.B) {
	c := New(512)
	for i := 0; i < 512; i++ {
		c.Touch(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(uint64(i % 512))
	}
}

func BenchmarkTouchStreaming(b *testing.B) {
	c := New(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(uint64(i))
	}
}
