package hw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// tweakFor computes the XEX tweak block for the 16-byte-aligned physical
// address.
func (s *PageCipher) tweakFor(pa PhysAddr) [BlockSize]byte {
	var in, out [BlockSize]byte
	binary.LittleEndian.PutUint64(in[:8], uint64(pa))
	s.x.tweak.Encrypt(out[:], in[:])
	return out
}

// EncryptBlock encrypts one 16-byte block in place, tweaked by its
// physical address: the byte-loop reference the line API is checked
// against.
func (s *PageCipher) EncryptBlock(pa PhysAddr, b []byte) {
	t := s.tweakFor(pa)
	for i := range b {
		b[i] ^= t[i]
	}
	s.x.data.Encrypt(b, b)
	for i := range b {
		b[i] ^= t[i]
	}
}

// DecryptBlock decrypts one 16-byte block in place, tweaked by its
// physical address: the byte-loop reference the line API is checked
// against.
func (s *PageCipher) DecryptBlock(pa PhysAddr, b []byte) {
	t := s.tweakFor(pa)
	for i := range b {
		b[i] ^= t[i]
	}
	s.x.data.Decrypt(b, b)
	for i := range b {
		b[i] ^= t[i]
	}
}

// refEncrypt / refDecrypt are the reference serial XEX: one EncryptBlock /
// DecryptBlock call per 16-byte block, exactly the pre-optimization hot
// path. The line/page APIs must be byte-identical to them.
func refEncrypt(s *PageCipher, pa PhysAddr, b []byte) {
	for off := 0; off+BlockSize <= len(b); off += BlockSize {
		s.EncryptBlock(pa+PhysAddr(off), b[off:off+BlockSize])
	}
}

func refDecrypt(s *PageCipher, pa PhysAddr, b []byte) {
	for off := 0; off+BlockSize <= len(b); off += BlockSize {
		s.DecryptBlock(pa+PhysAddr(off), b[off:off+BlockSize])
	}
}

func TestLineAPIMatchesPerBlockGolden(t *testing.T) {
	var key Key
	for i := range key {
		key[i] = byte(3*i + 7)
	}
	s, err := NewPageCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{BlockSize, LineSize, 3 * LineSize, PageSize, PageSize + 5} {
		plain := make([]byte, n)
		rng.Read(plain)
		for _, pa := range []PhysAddr{0, PageSize, 7 * PageSize, 0x123450} {
			want := append([]byte{}, plain...)
			refEncrypt(s, pa, want)

			got := append([]byte{}, plain...)
			s.EncryptLine(pa, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("EncryptLine(pa=%#x, n=%d) diverges from per-block path", pa, n)
			}
			if n == PageSize {
				got2 := append([]byte{}, plain...)
				s.EncryptPage(pa, got2)
				if !bytes.Equal(got2, want) {
					t.Fatalf("EncryptPage(pa=%#x) diverges from per-block path", pa)
				}
			}
			s.DecryptLine(pa, got)
			if !bytes.Equal(got, plain) {
				t.Fatalf("DecryptLine(pa=%#x, n=%d) does not invert EncryptLine", pa, n)
			}
			refDecrypt(s, pa, want)
			if !bytes.Equal(want, plain) {
				t.Fatalf("reference decrypt mismatch (pa=%#x, n=%d)", pa, n)
			}
		}
	}
}

func TestEngineLineAPIRequiresKey(t *testing.T) {
	e := NewEngine()
	if _, err := e.Slot(9); !errors.Is(err, ErrNoKey) {
		t.Fatalf("Slot without key: %v, want ErrNoKey", err)
	}
}

// TestControllerAccessPatterns drives misaligned, cross-line and
// partial-block reads and writes — plaintext and encrypted — against a
// plaintext shadow model, and checks the DRAM ciphertext against the
// reference per-block XEX after every write.
func TestControllerAccessPatterns(t *testing.T) {
	const asid = ASID(7)
	cases := []struct {
		name string
		pa   PhysAddr
		n    int
	}{
		{"block-aligned-line", 0, LineSize},
		{"misaligned-within-block", 3, 5},
		{"cross-block", 13, 10},
		{"cross-line", LineSize - 7, 20},
		{"cross-line-block-aligned", LineSize - 16, 32},
		{"partial-head-tail", 17, 94},
		{"full-page", PageSize, PageSize},
		{"page-misaligned", PageSize + 1, PageSize - 2},
		{"single-byte", 2*PageSize + 33, 1},
		{"tail-of-block", 31, 1},
		{"head-unaligned-tail-aligned", 5, 27},
		{"head-aligned-tail-unaligned", 48, 21},
	}
	for _, enc := range []bool{false, true} {
		name := "plain"
		if enc {
			name = "encrypted"
		}
		t.Run(name, func(t *testing.T) {
			c := testController(t, 8, 32)
			key := installKey(t, c, asid, 9)
			ref, err := NewPageCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			// Initialise every byte through the controller so all of DRAM
			// is well-formed (ciphertext, in the encrypted variant) and
			// any widened read-back decrypts cleanly.
			shadow := make([]byte, c.Mem.Size())
			rng := rand.New(rand.NewSource(1))
			rng.Read(shadow)
			for pa := PhysAddr(0); uint64(pa) < c.Mem.Size(); pa += PageSize {
				if err := c.Write(Access{PA: pa, Encrypted: enc, ASID: asid}, shadow[pa:pa+PageSize]); err != nil {
					t.Fatal(err)
				}
			}

			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					a := Access{PA: tc.pa, Encrypted: enc, ASID: asid}
					data := make([]byte, tc.n)
					rng.Read(data)
					if err := c.Write(a, data); err != nil {
						t.Fatalf("Write(%#x, %d): %v", tc.pa, tc.n, err)
					}
					copy(shadow[tc.pa:], data)

					// Read back through the controller (hits the cache for
					// some lines, DRAM for others) and compare to shadow.
					got := make([]byte, tc.n+8)
					start := tc.pa
					if start >= 4 {
						start -= 4 // widen to cover bytes around the write
					}
					if int(start)+len(got) > int(c.Mem.Size()) {
						got = got[:c.Mem.Size()-uint64(start)]
					}
					if err := c.Read(Access{PA: start, Encrypted: enc, ASID: asid}, got); err != nil {
						t.Fatalf("Read(%#x, %d): %v", start, len(got), err)
					}
					if !bytes.Equal(got, shadow[start:int(start)+len(got)]) {
						t.Fatalf("read-back mismatch at %#x+%d", start, len(got))
					}

					// DRAM must hold the reference per-block transform of
					// the shadow over every block the write overlapped.
					first := tc.pa &^ (BlockSize - 1)
					end := (tc.pa + PhysAddr(tc.n) + BlockSize - 1) &^ (BlockSize - 1)
					want := append([]byte{}, shadow[first:end]...)
					if enc {
						refEncrypt(ref, first, want)
					}
					raw := make([]byte, end-first)
					if err := c.Mem.ReadRaw(first, raw); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(raw, want) {
						t.Fatalf("DRAM ciphertext diverges from reference per-block XEX at %#x", first)
					}
				})
			}
		})
	}
}

// TestReadMissAllocsNothing guards the line-fill buffer: an unencrypted
// cache miss fills the line from DRAM on the stack. Only the encrypted
// branch may copy the line to the heap, for the cipher.Block interface.
func TestReadMissAllocsNothing(t *testing.T) {
	c := testController(t, 4, 32)
	a := Access{PA: PageSize + 8}
	buf := make([]byte, 16)
	allocs := testing.AllocsPerRun(100, func() {
		c.Cache.Invalidate(a.PA, len(buf))
		if err := c.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	})
	if _, misses := c.Cache.Stats(); misses < 100 {
		t.Fatalf("%d cache misses, want every read to miss", misses)
	}
	if allocs != 0 {
		t.Fatalf("an unencrypted cache-miss Read allocated %v times, want 0", allocs)
	}
}

// TestWriteNoKeyLeavesCacheIntact is the regression test for the ordering
// bug where Controller.Write mutated cached plaintext before discovering
// the ASID had no key, leaving cache and DRAM inconsistent.
func TestWriteNoKeyLeavesCacheIntact(t *testing.T) {
	c := testController(t, 4, 64)
	installKey(t, c, 5, 1)
	a := Access{PA: 0, Encrypted: true, ASID: 5}
	orig := bytes.Repeat([]byte{0xAB}, LineSize)
	if err := c.Write(a, orig); err != nil {
		t.Fatal(err)
	}
	// Populate the cache with the line's plaintext.
	buf := make([]byte, LineSize)
	if err := c.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Cache.Peek(0); !ok {
		t.Fatal("line 0 should be cached after the read")
	}
	// Pull the key out from under the next write: it must fault without
	// touching the cached plaintext or DRAM.
	c.Eng.Uninstall(5)
	evil := bytes.Repeat([]byte{0xCD}, LineSize)
	if err := c.Write(a, evil); !errors.Is(err, ErrNoKey) {
		t.Fatalf("Write without key: %v, want ErrNoKey", err)
	}
	line, ok := c.Cache.Peek(0)
	if !ok {
		t.Fatal("line 0 vanished from the cache")
	}
	if !bytes.Equal(line[:], orig) {
		t.Fatal("failed write mutated cached plaintext")
	}
}

// TestWriteClampsAtTopOfMemory is the regression test for the RMW span
// overrunning a non-block-aligned memory size: a write into the trailing
// sub-block region (and one crossing into it) must succeed, like Read.
func TestWriteClampsAtTopOfMemory(t *testing.T) {
	const extra = 24 // trailing non-block-multiple region
	mem := NewMemoryBytes(PageSize + extra)
	c := NewController(mem, 16)
	installKey(t, c, 3, 2)
	a := func(pa PhysAddr) Access { return Access{PA: pa, Encrypted: true, ASID: 3} }

	// Write crossing from the last full block into the raw tail.
	data := []byte("spans the last block boundary")
	pa := PhysAddr(mem.Size()) - PhysAddr(len(data))
	if err := c.Write(a(pa), data); err != nil {
		t.Fatalf("Write at top of memory: %v", err)
	}
	got := make([]byte, len(data))
	if err := c.Read(a(pa), got); err != nil {
		t.Fatalf("Read at top of memory: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("top-of-memory round trip: got %q want %q", got, data)
	}

	// Write entirely inside the trailing sub-block region.
	tail := []byte{1, 2, 3}
	pa = PhysAddr(mem.Size()) - 3
	if err := c.Write(a(pa), tail); err != nil {
		t.Fatalf("Write in sub-block tail: %v", err)
	}
	got = make([]byte, 3)
	if err := c.Read(a(pa), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, tail) {
		t.Fatalf("sub-block tail round trip: got %v want %v", got, tail)
	}

	// Out-of-range writes still fault.
	if err := c.Write(a(PhysAddr(mem.Size())-1), []byte{1, 2}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overrunning write: %v, want ErrOutOfRange", err)
	}
}

func TestSetAssociativeEviction(t *testing.T) {
	// 2 sets × 2 ways: lines 0, 128, 256 share set 0; 64 and 192 share
	// set 1 (set = (pa/64) mod 2).
	c := NewCacheWays(4, 2)
	var l [LineSize]byte
	fill := func(pa PhysAddr) { c.Fill(pa, &l) }
	fill(0)
	fill(128)
	fill(256) // set 0 full: replacement evicts line 0
	if _, ok := c.Peek(0); ok {
		t.Fatal("line 0 should have been evicted from set 0")
	}
	if _, ok := c.Peek(128); !ok {
		t.Fatal("line 128 missing after eviction in its set")
	}
	if c.evictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions.Load())
	}
	// Set 1 was never touched by set 0's pressure.
	fill(64)
	fill(192)
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	if _, ok := c.Peek(64); !ok {
		t.Fatal("line 64 missing from set 1")
	}
}

func TestClockSecondChance(t *testing.T) {
	// Single set, 4 ways. The sequence below leaves line 128 older than
	// line 192 but referenced by a lookup; CLOCK must spare 128 and evict
	// the younger, unreferenced 192 — where FIFO would kill 128.
	c := NewCacheWays(4, 4)
	var l [LineSize]byte
	fill := func(pa PhysAddr) { c.Fill(pa, &l) }
	fill(0)
	fill(64)
	fill(128)
	fill(192)
	fill(256) // sweep clears all reference bits, evicts line 0
	if _, ok := c.Peek(0); ok {
		t.Fatal("line 0 should have been the first victim")
	}
	if _, ok := c.Lookup(128); !ok { // re-reference 128
		t.Fatal("line 128 missing")
	}
	fill(320) // evicts unreferenced 64
	if _, ok := c.Peek(64); ok {
		t.Fatal("line 64 should have been evicted")
	}
	fill(384) // hand passes referenced 128 (clearing it), evicts 192
	if _, ok := c.Peek(128); !ok {
		t.Fatal("referenced line 128 should have survived the sweep")
	}
	if _, ok := c.Peek(192); ok {
		t.Fatal("unreferenced line 192 should have been the CLOCK victim")
	}
	if c.evictions.Load() != 3 {
		t.Fatalf("evictions = %d, want 3", c.evictions.Load())
	}
}

func TestSetAssociativeInvalidate(t *testing.T) {
	c := NewCacheWays(8, 2)
	var l [LineSize]byte
	for pa := PhysAddr(0); pa < 512; pa += LineSize {
		c.Fill(pa, &l)
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
	// Invalidate a span covering lines 64..191 (parts of three lines).
	c.Invalidate(70, 120)
	for _, pa := range []PhysAddr{64, 128} {
		if _, ok := c.Peek(pa); ok {
			t.Fatalf("line %d survived Invalidate", pa)
		}
	}
	for _, pa := range []PhysAddr{0, 192, 256} {
		if _, ok := c.Peek(pa); !ok {
			t.Fatalf("line %d wrongly invalidated", pa)
		}
	}
	if c.Len() != 6 {
		t.Fatalf("Len after invalidate = %d, want 6", c.Len())
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Len after flush = %d, want 0", c.Len())
	}
	if _, ok := c.Peek(0); ok {
		t.Fatal("flush left a line behind")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	var l [LineSize]byte
	c.Fill(0, &l)
	if _, ok := c.Lookup(0); ok {
		t.Fatal("capacity-0 cache must never hit")
	}
	c.Invalidate(0, PageSize) // must not panic
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("capacity-0 cache must stay empty")
	}
}

// Lookup returns the cached plaintext line containing pa, if present.
// The returned pointer aliases line storage; single-threaded callers only.
func (c *Cache) Lookup(pa PhysAddr) (*[LineSize]byte, bool) {
	if c.sets == 0 {
		c.misses.Add(1)
		return nil, false
	}
	base := lineBase(pa)
	set := c.setOf(base)
	c.locks[set].Lock()
	defer c.locks[set].Unlock()
	if i := c.findInSet(set, base); i >= 0 {
		c.hits.Add(1)
		c.ref[i] = true
		return &c.data[i], true
	}
	c.misses.Add(1)
	return nil, false
}

// Peek returns the cached line containing pa without touching hit/miss
// statistics or replacement state. The returned pointer aliases line
// storage; single-threaded callers only.
func (c *Cache) Peek(pa PhysAddr) (*[LineSize]byte, bool) {
	if c.sets == 0 {
		return nil, false
	}
	base := lineBase(pa)
	set := c.setOf(base)
	c.locks[set].Lock()
	defer c.locks[set].Unlock()
	if i := c.findInSet(set, base); i >= 0 {
		return &c.data[i], true
	}
	return nil, false
}
