package hw

import (
	"bytes"
	"errors"
	"testing"
)

func integController(t *testing.T) *Controller {
	t.Helper()
	c := NewController(NewMemory(8), 0)
	var key [32]byte
	key[0] = 0x42
	c.Integ = NewIntegrity(c.Mem, key)
	return c
}

func TestIntegrityBenignReadWrite(t *testing.T) {
	c := integController(t)
	if err := c.Integ.Protect(1); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("guarded line...."), 4)
	if err := c.Write(Access{PA: 0x1000}, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(Access{PA: 0x1000}, got); err != nil {
		t.Fatalf("benign read must verify: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if c.Integ.Verifies == 0 || c.Integ.Updates == 0 {
		t.Fatal("engine not exercised")
	}
}

func TestIntegrityDetectsPhysicalTamper(t *testing.T) {
	c := integController(t)
	c.Integ.Protect(1)
	if err := c.Write(Access{PA: 0x1000}, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	// Rowhammer-style flip bypassing the controller.
	if err := c.Mem.FlipBit(0x1010, 0); err != nil {
		t.Fatal(err)
	}
	err := c.Read(Access{PA: 0x1000}, make([]byte, 64))
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tamper not detected: %v", err)
	}
}

func TestIntegrityDMAWriteDetectedButFirmwareWriteTrusted(t *testing.T) {
	c := integController(t)
	c.Integ.Protect(2)
	base := PFN(2).Addr()
	if err := c.Write(Access{PA: base}, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	// DMA overwrite: detected.
	if err := c.DMA().Write(base, bytes.Repeat([]byte{9}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(Access{PA: base}, make([]byte, 64)); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("DMA tamper not detected: %v", err)
	}
	// Firmware write: tree updated, read verifies again.
	if err := c.FirmwareWrite(base, bytes.Repeat([]byte{5}, 64)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := c.Read(Access{PA: base}, got); err != nil {
		t.Fatalf("firmware write should re-arm the tree: %v", err)
	}
	if got[0] != 5 {
		t.Fatal("firmware write content lost")
	}
}

func TestIntegrityUnprotectedPagesUnaffected(t *testing.T) {
	c := integController(t)
	c.Integ.Protect(3)
	// Page 4 is not protected: tampering goes unnoticed (by design —
	// the engine costs cycles only where enabled).
	if err := c.Write(Access{PA: PFN(4).Addr()}, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c.Mem.FlipBit(PFN(4).Addr(), 0)
	if err := c.Read(Access{PA: PFN(4).Addr()}, make([]byte, 3)); err != nil {
		t.Fatalf("unprotected page read errored: %v", err)
	}
}

func TestIntegrityUnprotectAndRoot(t *testing.T) {
	c := integController(t)
	c.Integ.Protect(1)
	root1 := c.Integ.Root()
	if err := c.Write(Access{PA: 0x1000}, []byte("change")); err != nil {
		t.Fatal(err)
	}
	root2 := c.Integ.Root()
	if root1 == root2 {
		t.Fatal("root unchanged after update")
	}
	c.Integ.Unprotect(1)
	if c.Integ.Protected(1) {
		t.Fatal("still protected after Unprotect")
	}
	// Tampering after unprotect is no longer detected.
	c.Mem.FlipBit(0x1000, 1)
	if err := c.Read(Access{PA: 0x1000}, make([]byte, 8)); err != nil {
		t.Fatalf("read after unprotect: %v", err)
	}
}

func TestIntegrityAddressBinding(t *testing.T) {
	// Splicing identical content between two protected lines must fail
	// verification: leaves are address-bound.
	c := integController(t)
	c.Integ.Protect(1)
	same := bytes.Repeat([]byte{0xAB}, 64)
	if err := c.Write(Access{PA: 0x1000}, same); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(Access{PA: 0x1040}, same); err != nil {
		t.Fatal(err)
	}
	// Physically swap the two (identical!) lines' stored bytes with two
	// different lines elsewhere... instead, copy line at 0x1000 over
	// 0x1080 (a third protected line with different content).
	if err := c.Write(Access{PA: 0x1080}, bytes.Repeat([]byte{0xCD}, 64)); err != nil {
		t.Fatal(err)
	}
	var line [64]byte
	c.Mem.ReadRaw(0x1000, line[:])
	c.Mem.WriteRaw(0x1080, line[:])
	if err := c.Read(Access{PA: 0x1080}, make([]byte, 64)); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("line splice not detected: %v", err)
	}
}

// TestPropertyControllerCoherence: for unencrypted pages, a controller
// read always observes the most recent write, whether it arrived through
// the controller or via DMA, across random interleavings.
func TestPropertyControllerCoherence(t *testing.T) {
	c := NewController(NewMemory(8), 32)
	shadow := make([]byte, 8*PageSize)
	lcg := uint64(1)
	rnd := func(n uint64) uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return (lcg >> 33) % n
	}
	for i := 0; i < 3000; i++ {
		pa := PhysAddr(rnd(8*PageSize - 32))
		n := int(rnd(31)) + 1
		switch rnd(3) {
		case 0: // controller write
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(rnd(256))
			}
			if err := c.Write(Access{PA: pa}, data); err != nil {
				t.Fatal(err)
			}
			copy(shadow[pa:], data)
		case 1: // DMA write
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(rnd(256))
			}
			if err := c.DMA().Write(pa, data); err != nil {
				t.Fatal(err)
			}
			copy(shadow[pa:], data)
		case 2: // controller read must match the shadow
			got := make([]byte, n)
			if err := c.Read(Access{PA: pa}, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow[pa:int(pa)+n]) {
				t.Fatalf("coherence violation at %#x after %d ops", pa, i)
			}
		}
	}
}
