package deque

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestPrivateLIFOOwner(t *testing.T) {
	var d Private[int]
	for i := 1; i <= 3; i++ {
		d.Push(i)
	}
	for want := 3; want >= 1; want-- {
		v, ok := d.Pop()
		if !ok || v != want {
			t.Fatalf("Pop() = %d,%v, want %d,true", v, ok, want)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Fatalf("Pop() on empty deque should report false")
	}
}

func TestPrivateStealFIFOEnd(t *testing.T) {
	var d Private[string]
	d.Push("oldest")
	d.Push("middle")
	d.Push("newest")
	if v, ok := d.Steal(); !ok || v != "oldest" {
		t.Fatalf("Steal() = %q,%v, want oldest,true", v, ok)
	}
	if v, ok := d.Pop(); !ok || v != "newest" {
		t.Fatalf("Pop() after steal = %q,%v, want newest,true", v, ok)
	}
}

func TestPrivateStealEmpty(t *testing.T) {
	var d Private[int]
	if _, ok := d.Steal(); ok {
		t.Fatalf("Steal() on empty deque should report false")
	}
}

func TestPrivateLen(t *testing.T) {
	var d Private[int]
	if d.Len() != 0 {
		t.Fatalf("empty Len() = %d", d.Len())
	}
	for i := 0; i < 100; i++ {
		d.Push(i)
	}
	if d.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", d.Len())
	}
	d.Pop()
	d.Steal()
	if d.Len() != 98 {
		t.Fatalf("Len() = %d, want 98", d.Len())
	}
}

func TestSharedFIFO(t *testing.T) {
	var d Shared[int]
	for i := 0; i < 5; i++ {
		d.Push(i)
	}
	for want := 0; want < 5; want++ {
		v, ok := d.Poll()
		if !ok || v != want {
			t.Fatalf("Poll() = %d,%v, want %d,true", v, ok, want)
		}
	}
	if _, ok := d.Poll(); ok {
		t.Fatalf("Poll() on empty shared deque should report false")
	}
}

func TestSharedStealChunk(t *testing.T) {
	var d Shared[int]
	for i := 0; i < 5; i++ {
		d.Push(i)
	}
	got := d.StealChunk(2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("StealChunk(2) = %v, want [0 1]", got)
	}
	got = d.StealChunk(10) // more than available
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("StealChunk(10) = %v, want [2 3 4]", got)
	}
	if d.StealChunk(2) != nil {
		t.Fatalf("StealChunk on empty deque should return nil")
	}
}

func TestSharedStealChunkNonPositive(t *testing.T) {
	var d Shared[int]
	d.Push(1)
	if got := d.StealChunk(0); got != nil {
		t.Fatalf("StealChunk(0) = %v, want nil", got)
	}
	if got := d.StealChunk(-3); got != nil {
		t.Fatalf("StealChunk(-3) = %v, want nil", got)
	}
	if d.Len() != 1 {
		t.Fatalf("non-positive chunk must not consume elements")
	}
}

func TestSharedStealBest(t *testing.T) {
	var d Ring[int]
	for _, v := range []int{10, 30, 20, 30} {
		d.PushBack(v)
	}
	// Highest score first; the tied 30s come out oldest-first.
	got := d.StealBestAppend(nil, 3, func(v int) int64 { return int64(v) })
	if len(got) != 3 || got[0] != 30 || got[1] != 30 || got[2] != 20 {
		t.Fatalf("StealBestAppend = %v, want [30 30 20]", got)
	}
	// The untaken remainder keeps FIFO order.
	if v, ok := d.PopFront(); !ok || v != 10 {
		t.Fatalf("PopFront after StealBestAppend = %v, %v", v, ok)
	}
	if got := d.StealBestAppend(nil, 2, func(int) int64 { return 0 }); len(got) != 0 {
		t.Fatalf("StealBestAppend on empty = %v", got)
	}
}

func TestSharedStealBestConstantScoreIsFIFO(t *testing.T) {
	var a, b Ring[int]
	for i := 0; i < 9; i++ {
		a.PushBack(i)
		b.PushBack(i)
	}
	fifo := a.StealChunkAppend(nil, 4)
	best := b.StealBestAppend(nil, 4, func(int) int64 { return 7 })
	for i := range fifo {
		if fifo[i] != best[i] {
			t.Fatalf("constant score diverged from FIFO: %v vs %v", fifo, best)
		}
	}
	if got := b.StealBestAppend(nil, -1, func(int) int64 { return 0 }); got != nil {
		t.Fatalf("StealBestAppend(-1) = %v, want nil", got)
	}
}

func TestRingGrowthWrapAround(t *testing.T) {
	var d Shared[int]
	// Interleave pushes and polls to force head to wrap before growth.
	for i := 0; i < 6; i++ {
		d.Push(i)
	}
	for i := 0; i < 4; i++ {
		d.Poll()
	}
	for i := 6; i < 30; i++ {
		d.Push(i)
	}
	for want := 4; want < 30; want++ {
		v, ok := d.Poll()
		if !ok || v != want {
			t.Fatalf("Poll() = %d,%v, want %d,true", v, ok, want)
		}
	}
}

// Property: for any sequence of pushes, draining via Poll yields the exact
// push order (FIFO invariant of the shared deque).
func TestSharedFIFOProperty(t *testing.T) {
	f := func(xs []int16) bool {
		var d Shared[int16]
		for _, x := range xs {
			d.Push(x)
		}
		for _, want := range xs {
			v, ok := d.Poll()
			if !ok || v != want {
				return false
			}
		}
		_, ok := d.Poll()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: owner Pop sequence of a private deque is the reverse of the
// push order (LIFO invariant).
func TestPrivateLIFOProperty(t *testing.T) {
	f := func(xs []int16) bool {
		var d Private[int16]
		for _, x := range xs {
			d.Push(x)
		}
		for i := len(xs) - 1; i >= 0; i-- {
			v, ok := d.Pop()
			if !ok || v != xs[i] {
				return false
			}
		}
		return d.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mixing Pop and Steal never loses or duplicates elements.
func TestPrivateConservationProperty(t *testing.T) {
	f := func(xs []uint8, stealMask []bool) bool {
		var d Private[uint8]
		counts := map[uint8]int{}
		for _, x := range xs {
			d.Push(x)
			counts[x]++
		}
		for i := 0; i < len(xs); i++ {
			var v uint8
			var ok bool
			if i < len(stealMask) && stealMask[i] {
				v, ok = d.Steal()
			} else {
				v, ok = d.Pop()
			}
			if !ok {
				return false
			}
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Ring, and Private and Shared wrapping it, are one queue. Any
// op sequence gives the same answers on the bare ring, on the locked type,
// and on a plain slice model; and a scored steal with a constant score is
// the chunked steal.
func TestRingPrivateSharedAgree(t *testing.T) {
	constant := func(int) int64 { return 7 }
	f := func(ops []uint8) bool {
		var (
			ringP, ringS, ringBest Ring[int]
			priv                   Private[int]
			shared                 Shared[int]
			modelP, modelS         []int // oldest first
			next                   int
		)
		for _, op := range ops {
			switch k := int(op >> 2); op % 4 {
			case 0, 1: // push (twice as likely, so queues grow and wrap)
				next++
				ringP.PushBack(next)
				priv.Push(next)
				modelP = append(modelP, next)
				ringS.PushBack(next)
				ringBest.PushBack(next)
				shared.Push(next)
				modelS = append(modelS, next)
			case 2: // deque ends: LIFO pop on even k, FIFO steal on odd
				var want, a, b int
				var okA, okB bool
				wantOK := len(modelP) > 0
				if k%2 == 0 {
					a, okA = ringP.PopBack()
					b, okB = priv.Pop()
					if wantOK {
						want, modelP = modelP[len(modelP)-1], modelP[:len(modelP)-1]
					}
				} else {
					a, okA = ringP.PopFront()
					b, okB = priv.Steal()
					if wantOK {
						want, modelP = modelP[0], modelP[1:]
					}
				}
				if okA != wantOK || okB != wantOK || a != want || b != want {
					return false
				}
			case 3: // chunked steal of k%5-1 (so -1 and 0 occur), all three ways
				k = k%5 - 1
				want := modelS[:max(0, min(k, len(modelS)))]
				modelS = modelS[len(want):]
				for _, got := range [][]int{
					ringS.StealChunkAppend(nil, k),
					ringBest.StealBestAppend(nil, k, constant),
					shared.StealChunkAppend(nil, k),
				} {
					if !slices.Equal(got, want) {
						return false
					}
				}
			}
			if ringP.Len() != len(modelP) || priv.Len() != len(modelP) ||
				ringS.Len() != len(modelS) || ringBest.Len() != len(modelS) ||
				shared.Len() != len(modelS) {
				return false
			}
		}
		return true
	}
	// Sequences long enough to grow the ring several times with a wrapped
	// head (testing/quick caps a generated slice at 50 elements).
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		ops := make([]uint8, 400)
		rng.Read(ops)
		if !f(ops) {
			t.Fatalf("round %d: ring, locked types and model diverged on %v", round, ops)
		}
	}
}

func TestPrivateConcurrentOwnerAndThieves(t *testing.T) {
	var d Private[int]
	const n = 10000
	got := make(chan int, n)
	var wg sync.WaitGroup
	// Owner: pushes all, then pops what it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			d.Push(i)
		}
		for {
			v, ok := d.Pop()
			if !ok {
				return
			}
			got <- v
		}
	}()
	// Two thieves stealing concurrently.
	for th := 0; th < 2; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			misses := 0
			for misses < 1000 {
				if v, ok := d.Steal(); ok {
					got <- v
					misses = 0
				} else {
					misses++
				}
			}
		}()
	}
	wg.Wait()
	close(got)
	seen := make(map[int]bool, n)
	for v := range got {
		if seen[v] {
			t.Fatalf("element %d consumed twice", v)
		}
		seen[v] = true
	}
	// The owner drains the deque after pushing everything, so together with
	// the thieves every element must be consumed exactly once.
	if len(seen)+d.Len() != n {
		t.Fatalf("consumed %d + remaining %d != pushed %d", len(seen), d.Len(), n)
	}
}

func TestSharedConcurrentChunkSteals(t *testing.T) {
	var d Shared[int]
	const n = 8192
	for i := 0; i < n; i++ {
		d.Push(i)
	}
	var mu sync.Mutex
	seen := make(map[int]bool, n)
	var wg sync.WaitGroup
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				chunk := d.StealChunk(2)
				if chunk == nil {
					return
				}
				mu.Lock()
				for _, v := range chunk {
					if seen[v] {
						mu.Unlock()
						t.Errorf("element %d stolen twice", v)
						return
					}
					seen[v] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("stole %d distinct elements, want %d", len(seen), n)
	}
}

func BenchmarkPrivatePushPop(b *testing.B) {
	var d Private[int]
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Pop()
	}
}

func BenchmarkSharedPushPoll(b *testing.B) {
	var d Shared[int]
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Poll()
	}
}
