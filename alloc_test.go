package fidelius

import (
	"bytes"
	"runtime"
	"testing"

	"fidelius/internal/xen"
)

// skipInstrumented skips an allocation bound in a -race build, whose
// instrumentation allocates too. The lock-rank checker armed by
// FIDELIUS_LOCKRANK=1 allocates only a held-rank stack per goroutine it
// has not seen before, so the bounds hold under it.
func skipInstrumented(t *testing.T) {
	t.Helper()
	if raceBuild {
		t.Skip("-race instrumentation allocates")
	}
}

// allocated reports the heap bytes and objects fn allocates, from every
// goroutine.
func allocated(t *testing.T, fn func() error) (bytes, objects uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestNewMachineAllocationBound guards what booting a bare 4096-page
// machine costs the host: 205,896 bytes in 144 objects on a 2-vCPU amd64
// VM, against 399,784 bytes in 4,255 objects when the frame allocator
// built a free list of every frame at boot and the direct map converted
// its allocator to an interface once per mapped frame.
func TestNewMachineAllocationBound(t *testing.T) {
	skipInstrumented(t)
	n, objects := allocated(t, func() error {
		_, err := xen.NewMachine(xen.Config{MemPages: 4096, CacheLines: 1024})
		return err
	})
	t.Logf("NewMachine allocated %d bytes in %d objects", n, objects)
	if objects > 200 || n > 256<<10 {
		t.Fatalf("NewMachine allocated %d bytes in %d objects, want at most 256 KiB in 200", n, objects)
	}
}

// TestRepeatLiveMigrateAllocatesNoSlab guards the platform's SEND_UPDATE
// slab: the first migration out of a platform allocates it, every later
// one reuses it, so a later LiveMigrate between the same two platforms
// allocates less than one 128 KiB slab in all. The VM has 32 pages, one
// full 32-page chunk, so the slab is a whole 128 KiB, while the rest of
// what a migration allocates stays well under it: 30,968 bytes on a
// 2-vCPU amd64 VM with the AES-NI CTR kernel, where a packet allocates
// no cipher state, against 72,744 bytes when every page sealed and
// opened built a 512-byte cipher.NewCTR stream. The migration measured
// is the third: the first two also back simulated DRAM frames on their
// first touch, which later lifetimes reuse.
func TestRepeatLiveMigrateAllocatesNoSlab(t *testing.T) {
	skipInstrumented(t)
	a, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	kernel := bytes.Repeat([]byte("MIGRATED-KERNEL!"), 4*PageSize/16)
	var n uint64
	for l := 0; l < 3; l++ {
		if err := vmLifetime(a, b, owner, kernel, 32, func(fn func() error) error {
			n, _ = allocated(t, fn)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("the third LiveMigrate allocated %d bytes", n)
	if n >= 128<<10 {
		t.Fatalf("the third LiveMigrate allocated %d bytes, want under one 128 KiB slab", n)
	}
}

// TestPrepareGuestAllocatesOneImage guards PrepareGuest's single copy:
// the kernel is copied once, page-rounded, and sealed in that buffer, so
// a 16-page kernel costs less than two 64 KiB images.
func TestPrepareGuestAllocatesOneImage(t *testing.T) {
	skipInstrumented(t)
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	kernel := bytes.Repeat([]byte("PREPARED-KERNEL!"), 16*PageSize/16)
	n, _ := allocated(t, func() error {
		_, _, err := PrepareGuest(owner, plat.PlatformKey(), kernel, nil)
		return err
	})
	t.Logf("PrepareGuest of a 16-page kernel allocated %d bytes", n)
	if n >= 2*64<<10 {
		t.Fatalf("PrepareGuest of a 16-page kernel allocated %d bytes, want under two 64 KiB images", n)
	}
}
