package hw

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testController(t *testing.T, pages, cacheLines int) *Controller {
	t.Helper()
	c := NewController(NewMemory(pages), cacheLines)
	return c
}

func installKey(t testing.TB, c *Controller, asid ASID, seed byte) Key {
	t.Helper()
	var k Key
	for i := range k {
		k[i] = seed + byte(i)
	}
	if err := c.Eng.Install(asid, k); err != nil {
		t.Fatalf("Install(%d): %v", asid, err)
	}
	return k
}

func TestPlainReadWriteRoundTrip(t *testing.T) {
	c := testController(t, 4, 64)
	data := []byte("hello physical world")
	a := Access{PA: 100}
	if err := c.Write(a, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
	// Raw view matches, since the page is unencrypted.
	raw := make([]byte, len(data))
	if err := c.Mem.ReadRaw(100, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, data) {
		t.Fatalf("raw %q want %q", raw, data)
	}
}

func TestEncryptedWriteCiphertextInDRAM(t *testing.T) {
	c := testController(t, 4, 64)
	installKey(t, c, 5, 1)
	data := bytes.Repeat([]byte("secret! "), 8) // 64 bytes
	a := Access{PA: 4096, Encrypted: true, ASID: 5}
	if err := c.Write(a, data); err != nil {
		t.Fatal(err)
	}
	// Through the controller with the right key: plaintext.
	got := make([]byte, len(data))
	if err := c.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("controller read mismatch")
	}
	// Raw DRAM (cold boot): ciphertext.
	raw := make([]byte, len(data))
	if err := c.Mem.ReadRaw(4096, raw); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, data) {
		t.Fatal("DRAM holds plaintext for an encrypted page")
	}
	// DMA read: also ciphertext.
	dma := make([]byte, len(data))
	if err := c.DMA().Read(4096, dma); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(dma, data) {
		t.Fatal("DMA observes plaintext for an encrypted page")
	}
	if !bytes.Equal(dma, raw) {
		t.Fatal("DMA and raw views differ")
	}
}

func TestWrongKeyReadsGarbage(t *testing.T) {
	c := testController(t, 4, 0) // no cache: force engine path
	installKey(t, c, 1, 10)
	installKey(t, c, 2, 99)
	data := bytes.Repeat([]byte{0xAB}, 32)
	if err := c.Write(Access{PA: 0, Encrypted: true, ASID: 1}, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	if err := c.Read(Access{PA: 0, Encrypted: true, ASID: 2}, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("read with wrong ASID key returned plaintext")
	}
}

func TestMissingKeyFaults(t *testing.T) {
	c := testController(t, 1, 0)
	err := c.Write(Access{PA: 0, Encrypted: true, ASID: 7}, []byte("x"))
	if err == nil {
		t.Fatal("expected fault for missing key")
	}
}

func TestAddressTweakDiffersAcrossAddresses(t *testing.T) {
	c := testController(t, 4, 0)
	installKey(t, c, 1, 3)
	data := bytes.Repeat([]byte{0x5A}, 16)
	if err := c.Write(Access{PA: 0, Encrypted: true, ASID: 1}, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(Access{PA: 16, Encrypted: true, ASID: 1}, data); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, 16)
	b := make([]byte, 16)
	c.Mem.ReadRaw(0, a)
	c.Mem.ReadRaw(16, b)
	if bytes.Equal(a, b) {
		t.Fatal("identical plaintext at different addresses produced identical ciphertext; tweak missing")
	}
}

func TestCacheHitLeaksPlaintextAcrossASID(t *testing.T) {
	// The pre-SNP micro-architectural property the paper's inter-VM
	// remapping attack relies on: a physically-tagged plaintext cache hit
	// crosses ASID boundaries.
	c := testController(t, 4, 64)
	installKey(t, c, 1, 7)
	installKey(t, c, 2, 8)
	secret := bytes.Repeat([]byte("victim data pack"), 4)
	if err := c.Write(Access{PA: 0, Encrypted: true, ASID: 1}, secret); err != nil {
		t.Fatal(err)
	}
	// Victim reads it back, filling the cache with plaintext.
	tmp := make([]byte, len(secret))
	if err := c.Read(Access{PA: 0, Encrypted: true, ASID: 1}, tmp); err != nil {
		t.Fatal(err)
	}
	// Attacker (ASID 2) reads the same physical address and hits.
	got := make([]byte, len(secret))
	if err := c.Read(Access{PA: 0, Encrypted: true, ASID: 2}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("expected cross-ASID cache hit to leak plaintext (attack substrate)")
	}
	// After a cache flush the same read yields garbage.
	c.Cache.Flush()
	if err := c.Read(Access{PA: 0, Encrypted: true, ASID: 2}, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, secret) {
		t.Fatal("post-flush read with wrong key returned plaintext")
	}
}

func TestDMAWriteInvalidatesCache(t *testing.T) {
	c := testController(t, 4, 64)
	data := []byte("cached plain data and more bytes to fill the line......padding")
	if err := c.Write(Access{PA: 0}, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	c.Read(Access{PA: 0}, got) // fill cache
	if err := c.DMA().Write(0, []byte("OVERWRITTEN")); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(Access{PA: 0}, got[:11]); err != nil {
		t.Fatal(err)
	}
	if string(got[:11]) != "OVERWRITTEN" {
		t.Fatalf("stale cache after DMA write: %q", got[:11])
	}
}

func TestUnalignedEncryptedRMW(t *testing.T) {
	c := testController(t, 1, 0)
	installKey(t, c, 1, 5)
	base := bytes.Repeat([]byte{0x11}, 64)
	if err := c.Write(Access{PA: 0, Encrypted: true, ASID: 1}, base); err != nil {
		t.Fatal(err)
	}
	// Overwrite an unaligned span crossing block boundaries.
	if err := c.Write(Access{PA: 13, Encrypted: true, ASID: 1}, []byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := c.Read(Access{PA: 0, Encrypted: true, ASID: 1}, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[13:], "abcdefghij")
	if !bytes.Equal(got, want) {
		t.Fatalf("RMW corrupted surrounding bytes:\n got %x\nwant %x", got, want)
	}
}

func TestFlipBitCorruptsDecryption(t *testing.T) {
	c := testController(t, 1, 0)
	installKey(t, c, 1, 2)
	data := bytes.Repeat([]byte{0x42}, 16)
	if err := c.Write(Access{PA: 0, Encrypted: true, ASID: 1}, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Mem.FlipBit(3, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := c.Read(Access{PA: 0, Encrypted: true, ASID: 1}, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("rowhammer flip survived decryption unchanged")
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff < 8 {
		t.Fatalf("expected avalanche from block cipher, only %d bytes differ", diff)
	}
}

func TestEngineUninstall(t *testing.T) {
	c := testController(t, 1, 0)
	installKey(t, c, 3, 9)
	if _, err := c.Eng.Slot(3); err != nil {
		t.Fatal("key not installed")
	}
	c.Eng.Uninstall(3)
	if _, err := c.Eng.Slot(3); err == nil {
		t.Fatal("key still installed after uninstall")
	}
	if err := c.Read(Access{PA: 0, Encrypted: true, ASID: 3}, make([]byte, 16)); err == nil {
		t.Fatal("read succeeded after key uninstall")
	}
}

func TestOutOfRange(t *testing.T) {
	c := testController(t, 1, 0)
	if err := c.Read(Access{PA: PageSize - 4}, make([]byte, 8)); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := c.Write(Access{PA: PageSize}, []byte{1}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := c.Mem.ReadRaw(1<<40, make([]byte, 1)); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestPropertyEncryptDecryptRoundTrip(t *testing.T) {
	c := testController(t, 16, 0)
	installKey(t, c, 1, 77)
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 512 {
			payload = payload[:512]
		}
		pa := PhysAddr(off) % (15 * PageSize)
		a := Access{PA: pa, Encrypted: true, ASID: 1}
		if err := c.Write(a, payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := c.Read(a, got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCiphertextNeverEqualsPlaintext(t *testing.T) {
	c := testController(t, 16, 0)
	installKey(t, c, 9, 31)
	f := func(blockIdx uint8, payload [16]byte) bool {
		pa := PhysAddr(blockIdx) * BlockSize
		a := Access{PA: pa, Encrypted: true, ASID: 9}
		if err := c.Write(a, payload[:]); err != nil {
			return false
		}
		raw := make([]byte, 16)
		if err := c.Mem.ReadRaw(pa, raw); err != nil {
			return false
		}
		// A 16-byte block matching its AES encryption is a 2^-128 event.
		return !bytes.Equal(raw, payload[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheEvictionFIFO(t *testing.T) {
	cache := NewCache(2)
	var l [LineSize]byte
	cache.Fill(0, &l)
	cache.Fill(64, &l)
	cache.Fill(128, &l) // evicts line 0
	if _, ok := cache.Lookup(0); ok {
		t.Fatal("line 0 should have been evicted")
	}
	if _, ok := cache.Lookup(64); !ok {
		t.Fatal("line 64 missing")
	}
	if _, ok := cache.Lookup(128); !ok {
		t.Fatal("line 128 missing")
	}
}

func TestCycleCharging(t *testing.T) {
	c := testController(t, 4, 64)
	before := c.Cycles.Total()
	buf := make([]byte, 8)
	c.Read(Access{PA: 0}, buf) // miss
	miss := c.Cycles.Sub(before)
	before = c.Cycles.Total()
	c.Read(Access{PA: 0}, buf) // hit
	hit := c.Cycles.Sub(before)
	if hit >= miss {
		t.Fatalf("cache hit (%d) should be cheaper than miss (%d)", hit, miss)
	}
}
