package hw

import (
	"errors"
	"fmt"
	"testing"

	"fidelius/internal/cycles"
)

// TestEmptyAccessIsNoOp pins the empty-transfer fix: a zero-length write
// used to fall into the touched-line arithmetic, underflow to ~2^64 lines,
// and charge (and count) accordingly. Empty reads and writes must now be
// complete no-ops: no cycles, no transaction counters, no engine lines.
func TestEmptyAccessIsNoOp(t *testing.T) {
	for _, enc := range []bool{false, true} {
		t.Run(fmt.Sprintf("encrypted=%v", enc), func(t *testing.T) {
			c := NewController(NewMemory(16), 64)
			if enc {
				if err := c.Eng.Install(1, Key{1, 2, 3}); err != nil {
					t.Fatal(err)
				}
			}
			// No key installed for ASID 2: an empty encrypted access must
			// not even reach slot resolution.
			for _, a := range []Access{
				{PA: 0, Encrypted: enc, ASID: 1},
				{PA: 4096, Encrypted: enc, ASID: 2},
			} {
				before := c.Cycles.Total()
				snap := c.Telem.Reg.Snapshot()
				if err := c.Write(a, nil); err != nil {
					t.Fatalf("empty write %+v: %v", a, err)
				}
				if err := c.Read(a, nil); err != nil {
					t.Fatalf("empty read %+v: %v", a, err)
				}
				if d := c.Cycles.Total() - before; d != 0 {
					t.Fatalf("empty access at %+v charged %d cycles, want 0", a, d)
				}
				after := c.Telem.Reg.Snapshot()
				for _, k := range []string{"mem.reads", "mem.writes", "mem.read_bytes",
					"mem.write_bytes", "mem.enc_lines", "mem.dec_lines"} {
					if after.Gauges[k] != snap.Gauges[k] {
						t.Fatalf("empty access at %+v bumped %s: %d -> %d",
							a, k, snap.Gauges[k], after.Gauges[k])
					}
				}
			}
		})
	}
}

// TestDMAChargesPerLine pins the DMA accounting fix: transfers used to
// cost a flat cycles.MemAccess regardless of size. A DMA burst drains the
// bus once per overlapped cache line, so the charge scales with the span.
func TestDMAChargesPerLine(t *testing.T) {
	cases := []struct {
		pa   PhysAddr
		n    int
		want uint64 // overlapped cache lines
	}{
		{0, 1, 1},
		{0, LineSize, 1},
		{0, LineSize + 1, 2},
		{LineSize - 1, 2, 2}, // straddles a line boundary
		{32, LineSize, 2},    // unaligned full line
		{0, PageSize, PageSize / LineSize},
		{128, 3 * LineSize, 3}, // aligned interior burst
		{160, 3 * LineSize, 4}, // unaligned burst spills into a 4th line
	}
	for _, dir := range []string{"read", "write"} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/pa=%d,n=%d", dir, tc.pa, tc.n), func(t *testing.T) {
				c := NewController(NewMemory(16), 64)
				dma := c.DMA()
				buf := make([]byte, tc.n)
				before := c.Cycles.Total()
				var err error
				if dir == "read" {
					err = dma.Read(tc.pa, buf)
				} else {
					err = dma.Write(tc.pa, buf)
				}
				if err != nil {
					t.Fatal(err)
				}
				if d := c.Cycles.Total() - before; d != tc.want*cycles.MemAccess {
					t.Fatalf("%s of %d bytes at %#x charged %d cycles, want %d lines * %d = %d",
						dir, tc.n, tc.pa, d, tc.want, cycles.MemAccess, tc.want*cycles.MemAccess)
				}
			})
		}
	}
	// Empty DMA transfers are no-ops too (same underflow hazard as the
	// controller path).
	c := NewController(NewMemory(16), 64)
	dma := c.DMA()
	before := c.Cycles.Total()
	if err := dma.Read(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := dma.Write(0, nil); err != nil {
		t.Fatal(err)
	}
	if d := c.Cycles.Total() - before; d != 0 {
		t.Fatalf("empty DMA charged %d cycles", d)
	}
	snap := c.Telem.Reg.Snapshot()
	if snap.Gauges["dma.reads"] != 0 || snap.Gauges["dma.writes"] != 0 {
		t.Fatalf("empty DMA counted as a transaction: %+v", snap.Gauges)
	}
}

// TestDMAOutOfRangeChargesNothing pins the DMA bounds fix: Read and
// Write used to charge per touched line before checking the range, so a
// transfer near 2^64 wrapped the line count and charged ~2^63 cycles, a
// refused transfer at the end of DRAM was still charged, and a refused
// Write invalidated cached lines first. A refused DMA must charge, count
// and invalidate nothing.
func TestDMAOutOfRangeChargesNothing(t *testing.T) {
	const pages = 64
	size := PhysAddr(pages * PageSize)
	cases := []struct {
		pa PhysAddr
		n  int
	}{
		{PhysAddr(^uint64(0) - 10), LineSize}, // the touched-line count wraps
		{size - LineSize/2, LineSize},         // straddles the end of DRAM
		{size, 1},                             // one past the end
	}
	for _, dir := range []string{"read", "write"} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/pa=%#x,n=%d", dir, uint64(tc.pa), tc.n), func(t *testing.T) {
				c := NewController(NewMemory(pages), 64)
				// Cache the last line of DRAM: a refused write must not
				// invalidate it.
				last := size - LineSize
				if err := c.Read(Access{PA: last}, make([]byte, LineSize)); err != nil {
					t.Fatal(err)
				}
				lines := c.Cache.Len()
				before := c.Cycles.Total()
				buf := make([]byte, tc.n)
				var err error
				if dir == "read" {
					err = c.DMA().Read(tc.pa, buf)
				} else {
					err = c.DMA().Write(tc.pa, buf)
				}
				if !errors.Is(err, ErrOutOfRange) {
					t.Fatalf("got %v, want ErrOutOfRange", err)
				}
				if d := c.Cycles.Total() - before; d != 0 {
					t.Fatalf("refused DMA charged %d cycles", d)
				}
				if n := c.Cache.Len(); n != lines {
					t.Fatalf("refused DMA invalidated cache lines: %d -> %d", lines, n)
				}
				snap := c.Telem.Reg.Snapshot()
				if snap.Gauges["dma.reads"] != 0 || snap.Gauges["dma.writes"] != 0 {
					t.Fatalf("refused DMA counted as a transaction: %+v", snap.Gauges)
				}
			})
		}
	}
}

// TestIntegrityNotLaunderedByFailedWrite pins the integrity-on-failure
// fix. A write whose DRAM round trip fails must NOT update the Merkle
// tree: the old code ran Integ.Update in a defer even when ReadRaw or
// WriteRaw errored, re-MACing whatever DRAM held at that moment — so a
// physically tampered line was folded into the trusted state and the
// tamper went undetectable ("laundered").
func TestIntegrityNotLaunderedByFailedWrite(t *testing.T) {
	injected := errors.New("simulated DRAM fault")
	cases := []struct {
		name string
		enc  bool
	}{
		// Encrypted writes fail in the RMW ReadRaw (the fault window is
		// consumed by the first overlapping raw access); unencrypted
		// writes fail in WriteRaw directly — both legs of the fix.
		{"encrypted-rmw", true},
		{"unencrypted", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// No cache: every read goes to DRAM so verification always runs.
			c := NewController(NewMemory(16), 0)
			c.Integ = NewIntegrity(c.Mem, [32]byte{42})
			const asid = ASID(1)
			if err := c.Eng.Install(asid, Key{9, 9, 9}); err != nil {
				t.Fatal(err)
			}
			pfn := PFN(3)
			pa := pfn.Addr()
			acc := Access{PA: pa, Encrypted: tc.enc, ASID: asid}

			data := make([]byte, LineSize)
			for i := range data {
				data[i] = byte(i)
			}
			if err := c.Write(acc, data); err != nil {
				t.Fatal(err)
			}
			if err := c.Integ.Protect(pfn); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, LineSize)
			if err := c.Read(acc, got); err != nil {
				t.Fatalf("read of protected page: %v", err)
			}

			// Physical tamper behind the controller's back.
			if err := c.Mem.FlipBit(pa+7, 3); err != nil {
				t.Fatal(err)
			}
			if err := c.Read(acc, got); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("tampered read: got %v, want ErrIntegrity", err)
			}

			// A write to the tampered page whose DRAM round trip faults:
			// the store never lands, so the tree must keep the old MAC.
			updatesBefore := c.Integ.Updates
			c.Mem.InjectFault(pa, LineSize, injected)
			if err := c.Write(acc, data); !errors.Is(err, injected) {
				t.Fatalf("faulted write: got %v, want injected fault", err)
			}
			if c.Integ.Updates != updatesBefore {
				t.Fatalf("failed write ran %d integrity updates",
					c.Integ.Updates-updatesBefore)
			}
			if err := c.Read(acc, got); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("tamper was laundered by the failed write: read returned %v, want ErrIntegrity", err)
			}

			// A subsequent successful write repairs the line legitimately.
			if err := c.Write(acc, data); err != nil {
				t.Fatal(err)
			}
			if err := c.Read(acc, got); err != nil {
				t.Fatalf("read after repair: %v", err)
			}
		})
	}
}
