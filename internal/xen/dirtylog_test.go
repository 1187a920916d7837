package xen

import (
	"testing"

	"fidelius/internal/cpu"
)

func TestDirtyLogTracksGuestWrites(t *testing.T) {
	x := newXen(t)
	d, err := x.CreateDomain(DomainConfig{Name: "dirty", MemPages: 16, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.StartDirtyLog(d); err != nil {
		t.Fatal(err)
	}
	x.StartVCPU(d, func(g *GuestEnv) error {
		if err := g.Write(0x2000, []byte("round one")); err != nil {
			return err
		}
		if err := g.Write(0x3000, []byte("round one")); err != nil {
			return err
		}
		g.Halt() // phase boundary: the host collects here
		if err := g.Write64(0x3008, 42); err != nil {
			return err
		}
		// Fresh page first touched by a read, then written: the write
		// must still be logged.
		buf := make([]byte, 8)
		if err := g.Read(0x5000, buf); err != nil {
			return err
		}
		return g.Write(0x5000, []byte("fresh"))
	})

	// Phase one: run up to the HLT.
	for x.ExitCount(cpu.ExitHLT) == 0 {
		done, err := x.RunOnce(d)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatal("guest finished before the phase boundary")
		}
	}
	dirty, err := x.CollectDirty(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 2 || dirty[0] != 2 || dirty[1] != 3 {
		t.Fatalf("phase one dirty = %v, want [2 3]", dirty)
	}

	// Phase two: collected pages were re-protected, so the rewrite of
	// gfn 3 is caught again, and the read-then-written fresh gfn 5 too.
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	dirty, err = x.CollectDirty(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 2 || dirty[0] != 3 || dirty[1] != 5 {
		t.Fatalf("phase two dirty = %v, want [3 5]", dirty)
	}
	if got := x.M.Ctl.Telem.M.DirtyMarks.Value(); got < 4 {
		t.Fatalf("dirty-mark telemetry = %d, want >= 4", got)
	}

	// Teardown restores writable leaves and stops logging.
	if err := x.StopDirtyLog(d); err != nil {
		t.Fatal(err)
	}
	slot, err := x.NPTLeafSlot(d, 2<<12)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x.readPTE(d, slot)
	if err != nil {
		t.Fatal(err)
	}
	if !leaf.Present() || !leaf.Writable() {
		t.Fatalf("leaf for gfn 2 not restored writable: %#x", uint64(leaf))
	}
	if got := d.Dirty.Collect(); len(got) != 0 {
		t.Fatalf("stopped log still holds marks %v", got)
	}
}
