// Package cachesim models a per-worker L1 data cache as an LRU set of
// application data-block identifiers. It exists to reproduce the mechanism
// behind Table II of the paper: stealing a random task from a remote node
// disrupts the victim's and the thief's working sets, so non-selective
// distributed stealing (DistWS-NS) shows higher L1d miss rates than either
// X10WS or selective DistWS.
//
// The model deliberately abstracts away associativity and line size:
// applications declare their working sets as abstract block IDs (one block
// ≈ one cache-line-sized or page-sized chunk of the structure being
// processed), and the cache tracks which blocks a worker has touched
// recently. That is exactly the fidelity the paper's argument needs — a
// migrated task whose blocks are absent from the thief's cache misses on
// all of them, while a task re-run near its data hits.
package cachesim

import "math/bits"

// Cache is a fixed-capacity LRU set of block IDs. Not safe for concurrent
// use: each worker owns one cache, mirroring private L1s.
//
// Internally the LRU list is intrusive over a preallocated slab of nodes
// indexed by int32, found through an open-addressed table of slab slots
// (linear probing at load factor <= 1/2; the keys are the nodes' own block
// IDs, so the table is 4 bytes per entry). Once the slab is full every
// insertion reuses the evicted node in place, so steady-state operation —
// including Reset — allocates nothing: Touch is on the simulator's per-task
// hot path, where a pointer-based list would create one garbage node per
// miss and a built-in map spends more time hashing than the model does
// scheduling.
type Cache struct {
	capacity int
	table    []int32 // slab index + 1 at the block's probe position; 0 = empty
	shift    uint    // 64 - log2(len(table)): home takes the product's top bits
	slab     []node
	head     int32 // most recently used, -1 when empty
	tail     int32 // least recently used, -1 when empty
	used     int32 // slab nodes in use; nodes [0, used) are live
	refs     int64
	miss     int64
}

type node struct {
	block      uint64
	prev, next int32 // slab indices, -1 terminated
}

// New returns a cache holding at most capacity blocks. Capacity must be
// positive; a typical L1d of 32 KiB with 64-byte lines is capacity 512.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic("cachesim: capacity must be positive")
	}
	size := bits.Len(uint(2*capacity - 1)) // log2 of the power of two >= 2*capacity
	return &Cache{
		capacity: capacity,
		table:    make([]int32, 1<<size),
		shift:    uint(64 - size),
		slab:     make([]node, capacity),
		head:     -1,
		tail:     -1,
	}
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return int(c.used) }

// home is block's preferred table position (Fibonacci hashing: block IDs
// are small integers plus a place alias in the top byte, which the
// multiply spreads over the index bits).
func (c *Cache) home(block uint64) int {
	return int(block * 0x9E3779B97F4A7C15 >> c.shift)
}

// find returns the table position holding block, or the empty position
// where its probe sequence ends, and whether block is resident.
func (c *Cache) find(block uint64) (pos int, ok bool) {
	mask := len(c.table) - 1
	for pos = c.home(block); ; pos = (pos + 1) & mask {
		s := c.table[pos]
		if s == 0 {
			return pos, false
		}
		if c.slab[s-1].block == block {
			return pos, true
		}
	}
}

// remove deletes the entry at table position pos, shifting later entries
// of the probe run back so that no lookup meets a hole before its key
// (Knuth 6.4 Algorithm R).
func (c *Cache) remove(pos int) {
	mask := len(c.table) - 1
	for {
		c.table[pos] = 0
		next := pos
		for {
			next = (next + 1) & mask
			s := c.table[next]
			if s == 0 {
				return
			}
			// The entry at next may fill the hole unless its home lies
			// cyclically within (pos, next].
			if h := c.home(c.slab[s-1].block); (h-pos-1)&mask >= (next-pos)&mask {
				c.table[pos] = s
				break
			}
		}
		pos = next
	}
}

// Touch references one block, returning true on a hit. On a miss the block
// is installed, evicting the least recently used block if necessary.
func (c *Cache) Touch(block uint64) bool {
	c.refs++
	pos, ok := c.find(block)
	if ok {
		c.moveToFront(c.table[pos] - 1)
		return true
	}
	c.miss++
	var i int32
	if int(c.used) < c.capacity {
		i = c.used
		c.used++
	} else {
		// Full: reuse the LRU node in place. Removing its entry can shift
		// block's probe run, so the insertion point is looked up afresh.
		i = c.tail
		c.unlink(i)
		old, _ := c.find(c.slab[i].block)
		c.remove(old)
		pos, _ = c.find(block)
	}
	c.slab[i].block = block
	c.table[pos] = i + 1
	c.pushFront(i)
	return false
}

// TouchAll references every block in blocks, returning the number of hits
// and misses.
func (c *Cache) TouchAll(blocks []uint64) (hits, misses int) {
	for _, b := range blocks {
		if c.Touch(b) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// Contains reports whether block is resident without touching it.
func (c *Cache) Contains(block uint64) bool {
	_, ok := c.find(block)
	return ok
}

// Stats returns the cumulative references and misses.
func (c *Cache) Stats() (refs, misses int64) { return c.refs, c.miss }

// MissRate returns misses per reference in percent (0 when untouched).
func (c *Cache) MissRate() float64 {
	if c.refs == 0 {
		return 0
	}
	return 100 * float64(c.miss) / float64(c.refs)
}

// Reset empties the cache and zeroes the statistics. It reuses the node
// slab and the table's storage, so resetting between runs is garbage-free.
func (c *Cache) Reset() {
	clear(c.table)
	c.head, c.tail = -1, -1
	c.used = 0
	c.refs, c.miss = 0, 0
}

func (c *Cache) pushFront(i int32) {
	n := &c.slab[i]
	n.prev = -1
	n.next = c.head
	if c.head >= 0 {
		c.slab[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *Cache) unlink(i int32) {
	n := &c.slab[i]
	if n.prev >= 0 {
		c.slab[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.slab[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = -1, -1
}

func (c *Cache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
