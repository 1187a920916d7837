package hw

import (
	"sync"
	"sync/atomic"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// DefaultWays is the associativity used when a cache is built from a bare
// line count.
const DefaultWays = 8

// Cache is a small physically-indexed, physically-tagged cache holding
// plaintext. It reproduces the micro-architectural detail the paper's
// inter-VM remapping attack depends on: cache lines are plaintext and, on
// pre-SNP hardware, are tagged only by physical address — so a conspirator
// VM that gets the victim's page mapped into its NPT can hit a line the
// victim filled and read plaintext without ever touching the AES engine.
//
// The cache is write-through: stores update the line and propagate to DRAM
// through the engine, so DRAM is always current (ciphertext).
//
// Organisation is set-associative with CLOCK (second-chance) replacement
// per set: the line index selects a set, and lookup, fill and invalidate
// all touch only that set's ways. Line storage is one flat preallocated
// array, so filling a line never allocates and Invalidate is O(ways)
// instead of the old map+FIFO-slice's O(capacity) order scan.
//
// Locking is sharded per set (the lock order is the set index, and no
// operation ever holds two set locks at once), so concurrent vCPUs racing
// on different sets never contend. Statistics are atomics. ReadAt, WriteAt,
// Fill, Invalidate and Flush are safe for concurrent use; Lookup and Peek
// return a pointer into line storage and are for single-threaded callers
// (tests and the attack demos) only.
type Cache struct {
	sets int // power of two; 0 disables the cache
	ways int

	// Flat per-way state, indexed set*ways+way, guarded by the set's lock.
	data  [][LineSize]byte
	tags  []PhysAddr
	valid []bool
	ref   []bool
	hand  []int // CLOCK hand, one per set

	locks []sync.Mutex // one per set

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	live      atomic.Int64
}

// NewCache returns a cache holding at least capacity lines (rounded up to
// the nearest set-associative geometry: min(capacity, DefaultWays) ways ×
// a power-of-two number of sets). A capacity of 0 disables caching
// entirely.
func NewCache(capacity int) *Cache {
	return NewCacheWays(capacity, DefaultWays)
}

// NewCacheWays builds a cache with explicit associativity. ways is clamped
// to [1, capacity]; the set count is the smallest power of two covering
// capacity/ways lines.
func NewCacheWays(capacity, ways int) *Cache {
	if capacity <= 0 {
		return &Cache{}
	}
	if ways < 1 {
		ways = 1
	}
	if ways > capacity {
		ways = capacity
	}
	sets := 1
	for sets*ways < capacity {
		sets <<= 1
	}
	n := sets * ways
	return &Cache{
		sets:  sets,
		ways:  ways,
		data:  make([][LineSize]byte, n),
		tags:  make([]PhysAddr, n),
		valid: make([]bool, n),
		ref:   make([]bool, n),
		hand:  make([]int, sets),
		locks: make([]sync.Mutex, sets),
	}
}

func lineBase(pa PhysAddr) PhysAddr { return pa &^ (LineSize - 1) }

// setOf maps a line base address to its set index (physically indexed).
func (c *Cache) setOf(base PhysAddr) int {
	return int(uint64(base)/LineSize) & (c.sets - 1)
}

// findInSet returns the flat way index holding base within set, or -1.
// The caller must hold the set's lock.
func (c *Cache) findInSet(set int, base PhysAddr) int {
	i := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[i+w] && c.tags[i+w] == base {
			return i + w
		}
	}
	return -1
}

// ReadAt copies cached plaintext for pa into dst, which must not cross the
// line boundary. It reports whether the line was present, counting a hit
// or a miss. This is the memory controller's load path: the bytes are
// copied out under the set lock, so concurrent fills never tear a read.
func (c *Cache) ReadAt(pa PhysAddr, dst []byte) bool {
	if c.sets == 0 {
		c.misses.Add(1)
		return false
	}
	base := lineBase(pa)
	set := c.setOf(base)
	c.locks[set].Lock()
	i := c.findInSet(set, base)
	if i < 0 {
		c.locks[set].Unlock()
		c.misses.Add(1)
		return false
	}
	c.ref[i] = true
	off := int(pa - base)
	copy(dst, c.data[i][off:])
	c.locks[set].Unlock()
	c.hits.Add(1)
	return true
}

// WriteAt updates cached plaintext for pa in place if the line is present
// (no write-allocate), without touching hit/miss statistics or replacement
// state — the write-buffer's view. data must not cross the line boundary.
func (c *Cache) WriteAt(pa PhysAddr, data []byte) bool {
	if c.sets == 0 {
		return false
	}
	base := lineBase(pa)
	set := c.setOf(base)
	c.locks[set].Lock()
	i := c.findInSet(set, base)
	if i < 0 {
		c.locks[set].Unlock()
		return false
	}
	off := int(pa - base)
	copy(c.data[i][off:], data)
	c.locks[set].Unlock()
	return true
}

// Fill inserts a plaintext line, running CLOCK replacement in its set if
// every way is occupied.
func (c *Cache) Fill(pa PhysAddr, data *[LineSize]byte) {
	if c.sets == 0 {
		return
	}
	base := lineBase(pa)
	set := c.setOf(base)
	c.locks[set].Lock()
	defer c.locks[set].Unlock()
	if i := c.findInSet(set, base); i >= 0 {
		c.data[i] = *data
		c.ref[i] = true
		return
	}
	first := set * c.ways
	w := -1
	for v := 0; v < c.ways; v++ {
		if !c.valid[first+v] {
			w = first + v
			break
		}
	}
	if w < 0 {
		// CLOCK: sweep the hand, clearing reference bits, until a way
		// without a second chance comes up.
		for {
			h := first + c.hand[set]
			c.hand[set] = (c.hand[set] + 1) % c.ways
			if !c.ref[h] {
				w = h
				break
			}
			c.ref[h] = false
		}
		c.evictions.Add(1)
		c.live.Add(-1)
	}
	c.data[w] = *data
	c.tags[w] = base
	c.valid[w] = true
	c.ref[w] = true
	c.live.Add(1)
}

// Invalidate drops any line overlapping [pa, pa+n), taking one set lock at
// a time.
func (c *Cache) Invalidate(pa PhysAddr, n int) {
	if c.sets == 0 || n <= 0 {
		return
	}
	first := lineBase(pa)
	last := lineBase(pa + PhysAddr(n) - 1)
	for b := first; b <= last; b += LineSize {
		set := c.setOf(b)
		c.locks[set].Lock()
		if i := c.findInSet(set, b); i >= 0 {
			c.valid[i] = false
			c.ref[i] = false
			c.live.Add(-1)
		}
		c.locks[set].Unlock()
		if b+LineSize < b { // overflow guard
			break
		}
	}
}

// Flush empties the cache (WBINVD), sweeping the sets in ascending order
// one lock at a time.
func (c *Cache) Flush() {
	for s := 0; s < c.sets; s++ {
		c.locks[s].Lock()
		first := s * c.ways
		for w := 0; w < c.ways; w++ {
			if c.valid[first+w] {
				c.valid[first+w] = false
				c.live.Add(-1)
			}
			c.ref[first+w] = false
		}
		c.hand[s] = 0
		c.locks[s].Unlock()
	}
}

// Len reports the number of valid lines currently held.
func (c *Cache) Len() int { return int(c.live.Load()) }

// Stats reports hit and miss counts since creation.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits.Load(), c.misses.Load() }
