package sim

import (
	"math/rand"
	"sync"
)

// Seeding a math/rand source initializes 607 words of state (~7 µs), yet a
// simulated worker draws only a few hundred numbers per run (p99 364, max
// 448 across the paper exhibits) — seeding was 27 % of an exhibit pass.
// The stream is a pure function of the seed, so its first replayLen
// outputs are computed once per process and seed, kept immutable, and
// replayed by every generator built for that seed.
const (
	// replayLen is how many outputs of a seed's stream are tabled.
	replayLen = 512
	// replayMaxSeeds caps the table set (4 KiB per seed, 16 MiB in all).
	// Seeds past the cap get a real source: slower, same numbers.
	replayMaxSeeds = 4096
)

// replayCache is the set of prefix tables, at most max of them.
type replayCache struct {
	mu     sync.RWMutex
	max    int
	bySeed map[int64]*[replayLen]uint64
}

var replayTables = replayCache{max: replayMaxSeeds, bySeed: make(map[int64]*[replayLen]uint64)}

// table returns seed's shared prefix table, building it on first use, or
// nil when the cap is reached.
func (c *replayCache) table(seed int64) *[replayLen]uint64 {
	c.mu.RLock()
	tab := c.bySeed[seed]
	full := len(c.bySeed) >= c.max
	c.mu.RUnlock()
	if tab != nil || full {
		return tab
	}
	tab = new([replayLen]uint64)
	src := rand.NewSource(seed).(rand.Source64)
	for i := range tab {
		tab[i] = src.Uint64()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior := c.bySeed[seed]; prior != nil {
		return prior // a concurrent builder won; the contents are equal
	}
	if len(c.bySeed) >= c.max {
		return nil
	}
	c.bySeed[seed] = tab
	return tab
}

// replaySource is a rand.Source64 producing exactly the stream of
// rand.NewSource(seed): the tabled prefix first, then — only if a worker
// outdraws the table — a real source fast-forwarded past the prefix. It is
// stream-exact because the runtime source advances one step per draw
// whichever method is called, and its Int63 is its Uint64 with the sign bit
// cleared (TestReplaySourceMatchesMathRand holds both to account).
type replaySource struct {
	seed int64
	rest []uint64      // unread part of the seed's prefix table
	live rand.Source64 // the real source, once rest cannot serve
}

func newReplaySource(seed int64) replaySource {
	s := replaySource{seed: seed}
	if tab := replayTables.table(seed); tab != nil {
		s.rest = tab[:]
	} else {
		s.live = rand.NewSource(seed).(rand.Source64)
	}
	return s
}

func (s *replaySource) Uint64() uint64 {
	if len(s.rest) > 0 {
		v := s.rest[0]
		s.rest = s.rest[1:]
		return v
	}
	if s.live == nil {
		// The prefix is spent (an uncached source is live from the start):
		// continue from draw replayLen of the same stream.
		s.live = rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < replayLen; i++ {
			s.live.Uint64()
		}
	}
	return s.live.Uint64()
}

func (s *replaySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Seed restarts the source on another seed's stream (rand.Source).
func (s *replaySource) Seed(seed int64) { *s = newReplaySource(seed) }
