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
// on different sets never contend. Every counter lives in its set's
// record next to the lock and is a plain field, bumped by the access that
// already holds that lock; Stats and Len sum the sets one lock at a time,
// as Flush does. ReadAt, WriteAt, Fill, Invalidate and Flush are safe for
// concurrent use; Lookup and Peek return a pointer into line storage and
// are for single-threaded callers (tests and the attack demos) only.
//
// Invalidate skips a page with no line cached without taking a lock. The
// cache counts the resident lines of the pages whose frame number is p
// modulo the set count in one atomic counter per p, which Fill, CLOCK
// eviction, Invalidate and Flush keep under the lock of the line they
// change. A page whose counter reads zero has no line to drop. A Fill
// that lands after the read is one that could already land between two
// of Invalidate's set locks; firmware and DMA writes invalidate pages
// that are mostly not cached, so most of their pages take no lock.
type Cache struct {
	ways int // 0 disables the cache
	mask int // set count - 1; the set count is a power of two

	// Flat per-way state, indexed set*ways+way, guarded by the set's lock.
	// A way's tag is its line's base with bit 0 set (a base is 64-byte
	// aligned), or 0 while the way is empty.
	data [][LineSize]byte
	tags []PhysAddr
	ref  []bool

	// sets holds one record per set. A disabled cache keeps one, which
	// only counts.
	sets []cacheSet

	// pages[p] counts the resident lines of the pages whose frame number
	// is p modulo the set count (one per set; none when disabled).
	pages []atomic.Int32
}

// cacheSet is one set's lock, CLOCK hand and counters, all guarded by mu.
// reads, readBytes, writes and writeBytes are the memory controller's
// transaction counts (mem.reads and friends): each transaction is counted
// once, in the set of its first line, by the ReadAt or WriteAt call that
// holds that set's lock anyway.
type cacheSet struct {
	mu   sync.Mutex
	hand int32
	live int32

	hits, misses, evictions uint64
	reads, readBytes        uint64
	writes, writeBytes      uint64
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
		return &Cache{sets: make([]cacheSet, 1)}
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
		ways:  ways,
		mask:  sets - 1,
		data:  make([][LineSize]byte, n),
		tags:  make([]PhysAddr, n),
		ref:   make([]bool, n),
		sets:  make([]cacheSet, sets),
		pages: make([]atomic.Int32, sets),
	}
}

func lineBase(pa PhysAddr) PhysAddr { return pa &^ (LineSize - 1) }

// setOf maps a line base address to its set index (physically indexed).
func (c *Cache) setOf(base PhysAddr) int {
	return int(uint64(base)/LineSize) & c.mask
}

// pageLines is the resident-line counter of base's page.
func (c *Cache) pageLines(base PhysAddr) *atomic.Int32 {
	return &c.pages[int(uint64(base)>>PageShift)&c.mask]
}

// findInSet returns the flat way index holding base within set, or -1.
// The caller must hold the set's lock.
func (c *Cache) findInSet(set int, base PhysAddr) int {
	first := set * c.ways
	for w, tag := range c.tags[first : first+c.ways] {
		if tag == base|1 {
			return first + w
		}
	}
	return -1
}

// ReadAt copies cached plaintext for pa into dst, which must not cross the
// line boundary. It reports whether the line was present, counting a hit
// or a miss. This is the memory controller's load path: the bytes are
// copied out under the set lock, so concurrent fills never tear a read. A
// tx above zero marks the first line of a controller read of tx bytes,
// which the same set counts.
func (c *Cache) ReadAt(pa PhysAddr, dst []byte, tx int) bool {
	base := lineBase(pa)
	set := c.setOf(base)
	s := &c.sets[set]
	s.mu.Lock()
	if tx > 0 {
		s.reads++
		s.readBytes += uint64(tx)
	}
	i := c.findInSet(set, base)
	if i < 0 {
		s.misses++
		s.mu.Unlock()
		return false
	}
	s.hits++
	c.ref[i] = true
	copy(dst, c.data[i][pa-base:])
	s.mu.Unlock()
	return true
}

// WriteAt updates cached plaintext for pa in place if the line is present
// (no write-allocate), without touching hit/miss statistics or replacement
// state — the write-buffer's view. data must not cross the line boundary.
// A tx above zero marks the first line of a controller write of tx bytes,
// which the same set counts.
func (c *Cache) WriteAt(pa PhysAddr, data []byte, tx int) bool {
	base := lineBase(pa)
	set := c.setOf(base)
	s := &c.sets[set]
	s.mu.Lock()
	if tx > 0 {
		s.writes++
		s.writeBytes += uint64(tx)
	}
	i := c.findInSet(set, base)
	if i >= 0 {
		copy(c.data[i][pa-base:], data)
	}
	s.mu.Unlock()
	return i >= 0
}

// Fill inserts a plaintext line, running CLOCK replacement in its set if
// every way is occupied.
func (c *Cache) Fill(pa PhysAddr, data *[LineSize]byte) {
	if c.ways == 0 {
		return
	}
	base := lineBase(pa)
	set := c.setOf(base)
	s := &c.sets[set]
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := c.findInSet(set, base); i >= 0 {
		c.data[i] = *data
		c.ref[i] = true
		return
	}
	first := set * c.ways
	w := -1
	for v := 0; v < c.ways; v++ {
		if c.tags[first+v] == 0 {
			w = first + v
			break
		}
	}
	if w < 0 {
		// CLOCK: sweep the hand, clearing reference bits, until a way
		// without a second chance comes up.
		for {
			h := first + int(s.hand)
			s.hand = (s.hand + 1) % int32(c.ways)
			if !c.ref[h] {
				w = h
				break
			}
			c.ref[h] = false
		}
		s.evictions++
		s.live--
		c.pageLines(c.tags[w]).Add(-1)
	}
	c.data[w] = *data
	c.tags[w] = base | 1
	c.ref[w] = true
	s.live++
	c.pageLines(base).Add(1)
}

// Invalidate drops any line overlapping [pa, pa+n), taking one set lock at
// a time, and no lock for the lines of a page that has none cached.
func (c *Cache) Invalidate(pa PhysAddr, n int) {
	if c.ways == 0 || n <= 0 {
		return
	}
	first := lineBase(pa)
	last := lineBase(pa + PhysAddr(n) - 1)
	for b := first; ; {
		end := min(last, b|(PageSize-LineSize)) // the page's last line in range
		if c.pageLines(b).Load() != 0 {
			c.invalidateLines(b, end)
		}
		if end == last {
			return
		}
		b = end + LineSize
	}
}

// invalidateLines drops the lines from first to last, all of one page.
func (c *Cache) invalidateLines(first, last PhysAddr) {
	for b := first; ; b += LineSize {
		set := c.setOf(b)
		s := &c.sets[set]
		s.mu.Lock()
		if i := c.findInSet(set, b); i >= 0 {
			c.tags[i] = 0
			c.ref[i] = false
			s.live--
			c.pageLines(b).Add(-1)
		}
		s.mu.Unlock()
		if b == last {
			return
		}
	}
}

// Flush empties the cache (WBINVD), sweeping the sets in ascending order
// one lock at a time.
func (c *Cache) Flush() {
	for set := range c.sets {
		s := &c.sets[set]
		s.mu.Lock()
		first := set * c.ways
		for w := first; w < first+c.ways; w++ {
			if c.tags[w] != 0 {
				c.pageLines(c.tags[w]).Add(-1)
			}
			c.tags[w] = 0
			c.ref[w] = false
		}
		s.hand, s.live = 0, 0
		s.mu.Unlock()
	}
}

// sum adds up one counter of every set, taking one set lock at a time, as
// Flush does. Concurrent accesses may land on either side of the sweep.
func (c *Cache) sum(counter func(*cacheSet) uint64) uint64 {
	var t uint64
	for set := range c.sets {
		s := &c.sets[set]
		s.mu.Lock()
		t += counter(s)
		s.mu.Unlock()
	}
	return t
}

// Len reports the number of valid lines currently held.
func (c *Cache) Len() int {
	return int(c.sum(func(s *cacheSet) uint64 { return uint64(s.live) }))
}

// Stats reports hit and miss counts since creation.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.sum(func(s *cacheSet) uint64 { return s.hits }),
		c.sum(func(s *cacheSet) uint64 { return s.misses })
}
