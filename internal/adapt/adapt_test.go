package adapt

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"distws/internal/task"
)

func TestSignatureBucketsCollapseAndSeparate(t *testing.T) {
	// Same program point at similar sizes -> one kind.
	if Signature(1000, 8, 0, 512) != Signature(1023, 8, 0, 513) {
		t.Fatalf("near-identical tasks should share a signature")
	}
	// An order of magnitude apart, or a remote-reference burst -> distinct.
	if Signature(1000, 8, 0, 512) == Signature(64_000, 8, 0, 512) {
		t.Fatalf("64x cost difference should separate kinds")
	}
	if Signature(1000, 8, 0, 512) == Signature(1000, 8, 40, 512) {
		t.Fatalf("remote-reference count should separate kinds")
	}
	if Signature(0, 0, 0, 0) != 0 {
		t.Fatalf("zero attributes should give the zero signature")
	}
}

func TestInternDenseAndStable(t *testing.T) {
	c := New(Config{Places: 4})
	a := c.Intern(Signature(1000, 8, 0, 0))
	b := c.Intern(Signature(9000, 8, 0, 0))
	if a == b {
		t.Fatalf("distinct signatures interned to the same kind")
	}
	if got := c.Intern(Signature(1000, 8, 0, 0)); got != a {
		t.Fatalf("re-interning returned %d, want %d", got, a)
	}
	if got := c.NumKinds(); got != 2 {
		t.Fatalf("NumKinds = %d, want 2", got)
	}
	if a != 0 || b != 1 {
		t.Fatalf("kind ids not dense: %d, %d", a, b)
	}
}

func TestClassificationStartsFlexible(t *testing.T) {
	c := New(Config{Places: 4})
	k := c.Intern(Signature(1000, 64, 50, 4096))
	if got := c.Classify(k); got != task.Flexible {
		t.Fatalf("fresh kind classified %v, want Flexible (optimistic prior)", got)
	}
	// Unknown kinds are Flexible too, not a panic.
	if got := c.Classify(99); got != task.Flexible {
		t.Fatalf("unknown kind classified %v, want Flexible", got)
	}
}

// A kind that runs 3x slower when migrated must be pinned Sensitive, and
// exactly once: with migration stopped there are no further remote
// samples, so the classification is stable.
func TestPinOnRemoteSlowdown(t *testing.T) {
	c := New(Config{Places: 4})
	k := c.Intern(Signature(10_000, 32, 20, 1024))
	var flips int
	for i := 0; i < 10; i++ {
		if f, _ := c.ObserveExec(k, false, 10_000, 0); f {
			flips++
		}
		if f, cl := c.ObserveExec(k, true, 30_000, 0); f {
			flips++
			if cl != task.Sensitive {
				t.Fatalf("flip landed on %v, want Sensitive", cl)
			}
		}
	}
	if c.Classify(k) != task.Sensitive {
		t.Fatalf("kind with 3x remote slowdown stayed %v", c.Classify(k))
	}
	if flips != 1 {
		t.Fatalf("flips = %d, want exactly 1 (hysteresis must hold the pin)", flips)
	}
	if c.Flips() != 1 || c.KindFlips(k) != 1 {
		t.Fatalf("flip counters = %d/%d, want 1/1", c.Flips(), c.KindFlips(k))
	}
}

// A kind whose migrated runs cost the same as home runs (a genuinely
// flexible task: one cold cache pass, amortized) must stay Flexible.
func TestFlexibleKindStaysFlexible(t *testing.T) {
	c := New(Config{Places: 4})
	k := c.Intern(Signature(1_000_000, 64, 0, 65536))
	for i := 0; i < 20; i++ {
		c.ObserveExec(k, false, 1_000_000, 0)
		c.ObserveExec(k, true, 1_040_000, 0) // +4%: cold pass, well under PinRatio
	}
	if got := c.Classify(k); got != task.Flexible {
		t.Fatalf("near-par kind classified %v, want Flexible", got)
	}
	if c.Flips() != 0 {
		t.Fatalf("flips = %d, want 0", c.Flips())
	}
}

// The hysteresis band: a ratio between UnpinRatio and PinRatio never
// flips in either direction, so borderline kinds cannot oscillate.
func TestHysteresisBand(t *testing.T) {
	c := New(Config{Places: 4, PinRatio: 1.5, UnpinRatio: 1.2})
	k := c.Intern(Signature(10_000, 0, 0, 0))
	for i := 0; i < 50; i++ {
		c.ObserveExec(k, false, 10_000, 0)
		c.ObserveExec(k, true, 13_500, 0) // ratio 1.35, inside the band
	}
	if c.Flips() != 0 {
		t.Fatalf("in-band ratio flipped %d times, want 0", c.Flips())
	}
}

// A kind whose migrated service time barely moves (coarse work dwarfs
// the penalty) but whose data-locality penalty share is significant must
// still pin: this is the cache-miss/remote-ref criterion, the signal the
// total-service ratio is too noisy to carry.
func TestPinOnPenaltyFraction(t *testing.T) {
	c := New(Config{Places: 4})
	k := c.Intern(Signature(1_000_000, 32, 20, 1024))
	var flips int
	for i := 0; i < 10; i++ {
		// Ratio 1.08 — far below PinRatio 1.5. Penalty share of home
		// service: home 0, away 8% — above PinPenaltyFrac 5%.
		if f, _ := c.ObserveExec(k, false, 1_000_000, 0); f {
			flips++
		}
		if f, cl := c.ObserveExec(k, true, 1_080_000, 80_000); f {
			flips++
			if cl != task.Sensitive {
				t.Fatalf("flip landed on %v, want Sensitive", cl)
			}
		}
	}
	if c.Classify(k) != task.Sensitive {
		t.Fatalf("kind with 8%% locality penalty stayed %v", c.Classify(k))
	}
	if flips != 1 {
		t.Fatalf("flips = %d, want exactly 1", flips)
	}
}

// A penalty the kind pays at home too (e.g. a cold footprint it always
// misses on) is not a migration cost: only the away-minus-home penalty
// delta counts toward the pin criterion.
func TestHomePenaltyDoesNotPin(t *testing.T) {
	c := New(Config{Places: 4})
	k := c.Intern(Signature(1_000_000, 64, 0, 0))
	for i := 0; i < 20; i++ {
		c.ObserveExec(k, false, 1_000_000, 90_000)
		c.ObserveExec(k, true, 1_010_000, 100_000) // delta 1% of home service
	}
	if got := c.Classify(k); got != task.Flexible {
		t.Fatalf("kind with matching home/away penalties classified %v, want Flexible", got)
	}
	if c.Flips() != 0 {
		t.Fatalf("flips = %d, want 0", c.Flips())
	}
}

// Unpinning needs BOTH criteria back under their thresholds: a kind whose
// ratio recovered but whose penalty share is still high stays pinned.
func TestUnpinRequiresBothCriteriaClear(t *testing.T) {
	c := New(Config{Places: 4})
	k := c.Intern(Signature(10_000, 32, 20, 1024))
	for i := 0; i < 5; i++ {
		c.ObserveExec(k, false, 10_000, 0)
		c.ObserveExec(k, true, 30_000, 2_000) // pins via ratio 3.0
	}
	if c.Classify(k) != task.Sensitive {
		t.Fatalf("setup failed: kind not pinned")
	}
	// Away samples now at par on service but with 10% penalty share: the
	// penalty criterion holds the pin.
	for i := 0; i < 30; i++ {
		c.ObserveExec(k, false, 10_000, 0)
		c.ObserveExec(k, true, 10_500, 1_000)
	}
	if c.Classify(k) != task.Sensitive {
		t.Fatalf("unpinned while penalty share was above UnpinPenaltyFrac")
	}
	// Penalty gone too: now it may unpin.
	for i := 0; i < 40; i++ {
		c.ObserveExec(k, false, 10_000, 0)
		c.ObserveExec(k, true, 10_200, 0)
	}
	if c.Classify(k) != task.Flexible {
		t.Fatalf("kind with both criteria clear stayed %v", c.Classify(k))
	}
}

func TestMinSamplesGate(t *testing.T) {
	c := New(Config{Places: 4, MinSamples: 3})
	k := c.Intern(Signature(10_000, 0, 0, 0))
	// Two wildly slow remote runs but only two home samples: no flip yet.
	c.ObserveExec(k, false, 10_000, 0)
	c.ObserveExec(k, false, 10_000, 0)
	c.ObserveExec(k, true, 500_000, 0)
	c.ObserveExec(k, true, 500_000, 0)
	c.ObserveExec(k, true, 500_000, 0)
	if c.Flips() != 0 {
		t.Fatalf("flipped before MinSamples home observations")
	}
	if f, _ := c.ObserveExec(k, false, 10_000, 0); !f {
		t.Fatalf("third home sample should complete the evidence and pin")
	}
}

func TestChunkAdaptsDownWhenVictimsDrain(t *testing.T) {
	c := New(Config{Places: 4, ChunkWindow: 8})
	if c.Chunk(0) != 2 {
		t.Fatalf("initial chunk = %d, want the paper's 2", c.Chunk(0))
	}
	// Every steal empties its victim: fine surplus, chunk must shrink to 1.
	for i := 0; i < 16; i++ {
		c.ObserveSteal(0, 1, 10_000, 2, 0)
	}
	if got := c.Chunk(0); got != 1 {
		t.Fatalf("chunk after draining steals = %d, want 1", got)
	}
	// And never below MinChunk.
	for i := 0; i < 64; i++ {
		c.ObserveSteal(0, 1, 10_000, 1, 0)
	}
	if got := c.Chunk(0); got != 1 {
		t.Fatalf("chunk fell below MinChunk: %d", got)
	}
}

func TestChunkAdaptsUpWhenVictimsStayRich(t *testing.T) {
	c := New(Config{Places: 4, ChunkWindow: 8})
	for i := 0; i < 64; i++ {
		c.ObserveSteal(0, 1, 10_000, 2, 50)
	}
	if got := c.Chunk(0); got != 4 {
		t.Fatalf("chunk under rich victims = %d, want MaxChunk 4", got)
	}
	// Other places' controllers are independent.
	if got := c.Chunk(1); got != 2 {
		t.Fatalf("place 1 chunk moved to %d without observations", got)
	}
}

// Victim order is always a permutation of the other places, whatever the
// controller has observed.
func TestVictimOrderPermutationProperty(t *testing.T) {
	f := func(placesRaw, thiefRaw uint8, seed int64, obs []uint16) bool {
		places := int(placesRaw%15) + 2
		thief := int(thiefRaw) % places
		c := New(Config{Places: places})
		rng := rand.New(rand.NewSource(seed))
		for i, o := range obs {
			v := int(o) % places
			if v != thief {
				c.ObserveSteal(thief, v, int64(o)*100, i%3, i%5)
			}
		}
		order := c.AppendVictimOrder(nil, thief, rng)
		if len(order) != places-1 {
			return false
		}
		seen := make(map[int]bool, len(order))
		for _, p := range order {
			if p == thief || p < 0 || p >= places || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A victim with a timeout-laden latency history sorts behind clean ones;
// unobserved victims sort first.
func TestVictimOrderPrefersLowLatency(t *testing.T) {
	c := New(Config{Places: 4})
	for i := 0; i < 8; i++ {
		c.ObserveSteal(0, 1, 800_000, 1, 1) // flaky: timeout-scale latency
		c.ObserveSteal(0, 2, 10_000, 1, 1)  // clean round trips
	}
	for seed := int64(1); seed <= 20; seed++ {
		order := c.AppendVictimOrder(nil, 0, rand.New(rand.NewSource(seed)))
		if order[0] != 3 {
			t.Fatalf("seed %d: unobserved victim not probed first: %v", seed, order)
		}
		if order[2] != 1 {
			t.Fatalf("seed %d: flaky victim not probed last: %v", seed, order)
		}
	}
}

// Uniform latencies must degenerate to the caller's randomized sweep:
// the controller may not impose a fixed order when it has no signal.
func TestVictimOrderUniformLatencyIsRandomized(t *testing.T) {
	c := New(Config{Places: 8})
	for v := 1; v < 8; v++ {
		c.ObserveSteal(0, v, 10_000, 1, 1)
	}
	seen := map[int]bool{}
	for seed := int64(1); seed <= 32; seed++ {
		order := c.AppendVictimOrder(nil, 0, rand.New(rand.NewSource(seed)))
		seen[order[0]] = true
	}
	if len(seen) < 3 {
		t.Fatalf("uniform-latency first victims = %v, want randomized spread", seen)
	}
}

func TestVictimOrderSinglePlace(t *testing.T) {
	c := New(Config{Places: 1})
	if got := c.AppendVictimOrder(nil, 0, rand.New(rand.NewSource(1))); len(got) != 0 {
		t.Fatalf("single place should yield an empty order, got %v", got)
	}
}

// Shared-controller use from many goroutines: run under -race.
func TestConcurrentObservations(t *testing.T) {
	c := New(Config{Places: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := c.Intern(Signature(int64(1000*(g+1)), g, g%3, 64*g))
				c.Classify(k)
				c.ObserveExec(k, i%2 == 0, int64(1000+i), int64(i))
				c.ObserveSteal(g%8, (g+1)%8, int64(i), i%3, i%5)
				c.Chunk(g % 8)
				c.AppendVictimOrder(nil, g%8, rng)
			}
		}(g)
	}
	wg.Wait()
	if c.NumKinds() == 0 {
		t.Fatal("no kinds interned")
	}
}
