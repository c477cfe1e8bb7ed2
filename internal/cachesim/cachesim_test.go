package cachesim

import (
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
	if hits, misses := c.TouchAll([]uint64{1, 2}); hits != 1 || misses != 1 {
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
	hits, misses := c.TouchAll([]uint64{1, 2, 3, 1})
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
	c.TouchAll(ws) // cold pass
	for pass := 0; pass < 3; pass++ {
		hits, misses := c.TouchAll(ws)
		if misses != 0 || hits != len(ws) {
			t.Fatalf("pass %d: %d hits %d misses, want all hits", pass, hits, misses)
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
