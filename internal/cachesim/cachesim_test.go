package cachesim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	c := New(4)
	if c.Touch(1) {
		t.Fatalf("first touch should miss")
	}
	if !c.Touch(1) {
		t.Fatalf("second touch should hit")
	}
	refs, misses := c.Stats()
	if refs != 2 || misses != 1 {
		t.Fatalf("stats = %d refs %d misses, want 2/1", refs, misses)
	}
	if got := c.MissRate(); got != 50 {
		t.Fatalf("MissRate = %v, want 50", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // 1 is now MRU, 2 is LRU
	c.Touch(3) // evicts 2
	if !c.Contains(1) {
		t.Fatalf("block 1 should survive (was MRU)")
	}
	if c.Contains(2) {
		t.Fatalf("block 2 should have been evicted (was LRU)")
	}
	if !c.Contains(3) {
		t.Fatalf("block 3 should be resident")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
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
	if c.Contains(1) || !c.Contains(2) {
		t.Fatalf("capacity-1 cache should hold only the last block")
	}
	if !c.Touch(2) {
		t.Fatalf("resident block should hit")
	}
}

func TestReset(t *testing.T) {
	c := New(4)
	c.TouchAll([]uint64{1, 2, 3})
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	refs, misses := c.Stats()
	if refs != 0 || misses != 0 {
		t.Fatalf("stats after Reset = %d/%d", refs, misses)
	}
	if c.Touch(1) {
		t.Fatalf("touch after reset should miss")
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

func TestMissRateEmptyCache(t *testing.T) {
	if got := New(4).MissRate(); got != 0 {
		t.Fatalf("untouched cache MissRate = %v, want 0", got)
	}
}

// Property: Len never exceeds capacity and Contains agrees with a model map
// maintained under the same LRU discipline.
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
			if c.Len() > capacity || c.Len() != len(model) {
				return false
			}
		}
		for b := uint64(0); b < 32; b++ {
			for _, k := range []uint64{b, b | 1<<56} {
				if c.Contains(k) != slices.Contains(model, k) {
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
