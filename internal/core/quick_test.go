package core

import (
	"testing"
	"testing/quick"

	"fidelius/internal/hw"
	"fidelius/internal/xen"
)

// Property tests on the two information tables: whatever is stored in
// their memory-resident representation must read back identically.

func TestPropertyPITEntryBits(t *testing.T) {
	f := func(use uint8, owner uint16, asid uint16) bool {
		u := xen.PageUse(use % 11)
		o := xen.DomID(owner & 0x1FFF)
		a := hw.ASID(asid & 0x3FFF)
		e := MakePITEntry(u, o, a)
		return e.Valid() && e.Use() == u && e.Owner() == o && e.ASID() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPITStorageRoundTrip(t *testing.T) {
	_, fid := newPlatform(t)
	f := func(pfnSeed uint32, use uint8, owner uint16) bool {
		pfn := hw.PFN(pfnSeed % (1 << 20)) // within coverage
		e := MakePITEntry(xen.PageUse(use%11), xen.DomID(owner&0x1FFF), 3)
		if err := fid.PIT.Set(pfn, e); err != nil {
			return false
		}
		got, err := fid.PIT.Get(pfn)
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGITStorageRoundTrip(t *testing.T) {
	_, fid := newPlatform(t)
	slot := 0
	f := func(init, target uint16, gfn, pfn uint32, count uint16, ro bool) bool {
		if slot >= GITEntriesPerPage {
			return true // table full; earlier iterations covered it
		}
		e := GITEntry{
			Initiator: xen.DomID(init),
			Target:    xen.DomID(target),
			ReadOnly:  ro,
			GFNStart:  uint64(gfn),
			PFNStart:  hw.PFN(pfn),
			Count:     uint64(count%64) + 1,
		}
		if err := fid.GIT.Add(e); err != nil {
			return false
		}
		got, err := fid.GIT.Entry(slot)
		slot++
		if err != nil || !got.Valid {
			return false
		}
		e.Valid = true
		return got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGITCoverage(t *testing.T) {
	f := func(gfnStart uint32, count uint16, probe uint32) bool {
		e := GITEntry{Valid: true, GFNStart: uint64(gfnStart), Count: uint64(count)}
		in := e.CoversGFN(uint64(probe))
		want := uint64(probe) >= uint64(gfnStart) && uint64(probe)-uint64(gfnStart) < uint64(count)
		return in == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOnceVec checks the §5.3 bit-vector: any byte written once
// flips markRange's freshness for overlapping ranges.
func TestPropertyOnceVec(t *testing.T) {
	f := func(off1, n1, off2, n2 uint16) bool {
		o1, l1 := int(off1)%hw.PageSize, int(n1)%256+1
		o2, l2 := int(off2)%hw.PageSize, int(n2)%256+1
		var v onceVec
		if !v.markRange(o1, l1) {
			return false // first mark of a fresh vec is always fresh
		}
		overlap := o1 < o2+l2 && o2 < o1+l1
		fresh2 := v.markRange(o2, l2)
		// Second mark is fresh iff the ranges do not overlap (within
		// the page).
		e1 := min(o1+l1, hw.PageSize)
		e2 := min(o2+l2, hw.PageSize)
		overlap = o1 < e2 && o2 < e1
		return fresh2 == !overlap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
