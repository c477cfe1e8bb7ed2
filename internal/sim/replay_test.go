package sim

import (
	"math/rand"
	"sync"
	"testing"
)

var replaySeeds = []int64{1, 2, 15_007, -1, -987_654_321, 1 << 31, 1<<40 + 3, 0, 1<<63 - 1}

// drawMix consumes roughly n source steps through every rand.Rand entry
// point the engine or a policy uses, appending what it drew.
func drawMix(r *rand.Rand, n int, out []uint64) []uint64 {
	perm := make([]int, 15)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, r.Uint64())
		case 1:
			out = append(out, uint64(r.Int63()))
		case 2:
			out = append(out, uint64(r.Intn(relaxedDupOneIn)), uint64(r.Intn(1<<40)))
		case 3:
			for j := range perm {
				perm[j] = j
			}
			r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			for _, v := range perm {
				out = append(out, uint64(v))
			}
		}
	}
	return out
}

// The replayed prefix, the hand-off to a fast-forwarded real source, and
// everything after it must be the stream math/rand gives the same seed —
// the engine's victim orders (and so every exhibit) depend on it.
func TestReplaySourceMatchesMathRand(t *testing.T) {
	for _, seed := range replaySeeds {
		// Raw steps: straddle the table's end exactly.
		for _, n := range []int{0, replayLen - 1, replayLen, replayLen + 100} {
			src := newReplaySource(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < n; i++ {
				if i%3 == 0 {
					if got, want := src.Int63(), ref.Int63(); got != want {
						t.Fatalf("seed %d draw %d/%d: Int63 = %d, want %d", seed, i, n, got, want)
					}
				} else if got, want := src.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d/%d: Uint64 = %d, want %d", seed, i, n, got, want)
				}
			}
			// One more through rand.Rand, whatever side of the boundary.
			src2 := src
			if got, want := rand.New(&src2).Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d after %d draws: next Int63 = %d, want %d", seed, n, got, want)
			}
		}
		// Derived draws (Shuffle and Intn reject and redraw, so step counts
		// vary): long enough to cross the table boundary mid-Shuffle.
		src := newReplaySource(seed)
		got := drawMix(rand.New(&src), 200, nil)
		want := drawMix(rand.New(rand.NewSource(seed)), 200, nil)
		if len(src.rest) != 0 || src.live == nil {
			t.Fatalf("seed %d: mix did not outdraw the table (rest %d)", seed, len(src.rest))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: mixed draw %d = %d, want %d", seed, i, got[i], want[i])
			}
		}
	}
}

// The table set stops growing at its cap, and a seed refused a table is
// served by a real source from the first draw: same stream, nothing tabled.
func TestReplayCacheCap(t *testing.T) {
	c := replayCache{max: 2, bySeed: make(map[int64]*[replayLen]uint64)}
	first := c.table(10)
	if first == nil || c.table(11) == nil {
		t.Fatal("tables below the cap were refused")
	}
	if c.table(12) != nil || len(c.bySeed) != 2 {
		t.Fatalf("cap of 2 not enforced: %d tables", len(c.bySeed))
	}
	if c.table(10) != first {
		t.Fatal("a tabled seed lost its table once the cap was reached")
	}

	src := replaySource{seed: 12, live: rand.NewSource(12).(rand.Source64)} // newReplaySource's result for a refused seed
	ref := rand.NewSource(12).(rand.Source64)
	for i := 0; i < replayLen+10; i++ {
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
}

// expt's worker pool builds generators for the same seeds from several
// goroutines at once; the tables are shared, the cursors are not. Run
// with -race.
func TestReplaySourceConcurrentBuild(t *testing.T) {
	const goroutines = 8
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = 900_000 + int64(i) // fresh: every goroutine races to build each table
	}
	want := make([]uint64, len(seeds))
	for i, s := range seeds {
		want[i] = rand.New(rand.NewSource(s)).Uint64()
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range seeds {
				src := newReplaySource(s)
				if got := rand.New(&src).Uint64(); got != want[i] {
					t.Errorf("seed %d: first draw = %d, want %d", s, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
