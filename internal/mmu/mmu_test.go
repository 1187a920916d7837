package mmu

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"fidelius/internal/hw"
)

// bumpAlloc hands out frames sequentially starting at a base.
type bumpAlloc struct {
	next hw.PFN
	max  hw.PFN
}

func (a *bumpAlloc) AllocFrame() (hw.PFN, error) {
	if a.next >= a.max {
		return 0, errors.New("out of frames")
	}
	f := a.next
	a.next++
	return f, nil
}

func newTestSpace(t *testing.T, pages int) (*Space, *bumpAlloc, *hw.Controller) {
	t.Helper()
	ctl := hw.NewController(hw.NewMemory(pages), 256)
	alloc := &bumpAlloc{next: 1, max: hw.PFN(pages)}
	root, err := alloc.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	s := &Space{Ctl: ctl, Root: root}
	if err := s.zeroFrame(root); err != nil {
		t.Fatal(err)
	}
	return s, alloc, ctl
}

func TestMapTranslateRoundTrip(t *testing.T) {
	s, alloc, _ := newTestSpace(t, 64)
	target, _ := alloc.AllocFrame()
	va := uint64(0x40002000)
	if err := s.Map(alloc, va, MakePTE(target, FlagP|FlagW)); err != nil {
		t.Fatal(err)
	}
	tr, err := s.Translate(va, Read, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.HPA != target.Addr() {
		t.Fatalf("hpa %#x want %#x", tr.HPA, target.Addr())
	}
	if _, err := s.Translate(va+0x1000, Read, true, false); err == nil {
		t.Fatal("adjacent page should be unmapped")
	}
}

func TestWPSemantics(t *testing.T) {
	s, alloc, _ := newTestSpace(t, 64)
	target, _ := alloc.AllocFrame()
	va := uint64(0x1000)
	if err := s.Map(alloc, va, MakePTE(target, FlagP)); err != nil { // read-only
		t.Fatal(err)
	}
	// Supervisor write with WP set: fault.
	if _, err := s.Translate(va, Write, true, false); err == nil {
		t.Fatal("expected write-protect fault with WP=1")
	} else {
		var pf *PageFault
		if !errors.As(err, &pf) || pf.Reason != WriteProtected {
			t.Fatalf("unexpected fault %v", err)
		}
	}
	// Supervisor write with WP clear: allowed — the type 1 gate mechanism.
	if _, err := s.Translate(va, Write, false, false); err != nil {
		t.Fatalf("WP=0 supervisor write should pass: %v", err)
	}
	// User write ignores WP relaxation.
	if _, err := s.Translate(va, Write, false, true); err == nil {
		t.Fatal("user write to read-only page must fault regardless of WP")
	}
}

func TestNXAndUserChecks(t *testing.T) {
	s, alloc, _ := newTestSpace(t, 64)
	target, _ := alloc.AllocFrame()
	if err := s.Map(alloc, 0x1000, MakePTE(target, FlagP|FlagW|FlagNX)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Translate(0x1000, Execute, true, false); err == nil {
		t.Fatal("expected NX fault")
	}
	target2, _ := alloc.AllocFrame()
	if err := s.Map(alloc, 0x2000, MakePTE(target2, FlagP)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Translate(0x2000, Read, true, true); err == nil {
		t.Fatal("expected user/supervisor fault")
	}
}

func TestNonCanonical(t *testing.T) {
	s, _, _ := newTestSpace(t, 8)
	if _, err := s.Translate(1<<40, Read, true, false); err == nil {
		t.Fatal("expected non-canonical fault")
	}
}

func TestUnmapAndSetLeaf(t *testing.T) {
	s, alloc, _ := newTestSpace(t, 64)
	target, _ := alloc.AllocFrame()
	va := uint64(0x5000)
	if err := s.Map(alloc, va, MakePTE(target, FlagP|FlagW)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLeaf(va, MakePTE(target, FlagP)); err != nil {
		t.Fatal(err)
	}
	leaf, err := s.Leaf(va)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Writable() {
		t.Fatal("SetLeaf failed to clear W")
	}
	if err := s.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Translate(va, Read, true, false); err == nil {
		t.Fatal("still mapped after Unmap")
	}
	// Unmapping an unmapped address is not an error.
	if err := s.Unmap(0x77000); err != nil {
		t.Fatal(err)
	}
}

func TestTablePages(t *testing.T) {
	s, alloc, _ := newTestSpace(t, 128)
	target, _ := alloc.AllocFrame()
	// Two VAs far apart force distinct intermediate tables.
	if err := s.Map(alloc, 0x1000, MakePTE(target, FlagP)); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(alloc, 0x10_0000_0000, MakePTE(target, FlagP)); err != nil {
		t.Fatal(err)
	}
	pages, err := s.TablePages()
	if err != nil {
		t.Fatal(err)
	}
	// root + 2×L1 + 2×L0 = 5
	if len(pages) != 5 {
		t.Fatalf("got %d table pages, want 5: %v", len(pages), pages)
	}
	if pages[0] != s.Root {
		t.Fatal("root must come first")
	}
}

func TestLeafSlot(t *testing.T) {
	s, alloc, ctl := newTestSpace(t, 64)
	target, _ := alloc.AllocFrame()
	va := uint64(0x3000)
	if err := s.Map(alloc, va, MakePTE(target, FlagP|FlagW)); err != nil {
		t.Fatal(err)
	}
	slot, err := s.LeafSlot(va)
	if err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	if err := ctl.Read(hw.Access{PA: slot}, b[:]); err != nil {
		t.Fatal(err)
	}
	got := PTE(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
	if got.PFN() != target {
		t.Fatalf("slot holds %v, want pfn %#x", got, uint64(target))
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB()
	tr := Translation{HPA: 0x1000}
	tlb.Insert(1, 0x2000, Read, tr)
	tlb.Insert(2, 0x2000, Read, Translation{HPA: 0x3000})
	if got, ok := tlb.Lookup(1, 0x2abc, Read); !ok || got.HPA != 0x1000 {
		t.Fatal("ASID-1 lookup failed or collided")
	}
	tlb.FlushEntry(1, 0x2000)
	if _, ok := tlb.Lookup(1, 0x2000, Read); ok {
		t.Fatal("entry survived FlushEntry")
	}
	if _, ok := tlb.Lookup(2, 0x2000, Read); !ok {
		t.Fatal("FlushEntry flushed the wrong ASID")
	}
	tlb.Insert(3, 0x1000, Read, tr)
	tlb.FlushAll()
	if tlb.Len() != 0 || tlb.FullFlushes != 1 {
		t.Fatal("FlushAll bookkeeping wrong")
	}
}

func buildNested(t *testing.T) (*Nested, *bumpAlloc, *hw.Controller, hw.PFN) {
	t.Helper()
	ctl := hw.NewController(hw.NewMemory(256), 0)
	var key hw.Key
	key[0] = 42
	if err := ctl.Eng.Install(7, key); err != nil {
		t.Fatal(err)
	}
	alloc := &bumpAlloc{next: 1, max: 256}

	// NPT: GPA -> HPA, identity-with-offset (gpa n -> hpa n+64 pages).
	nptRoot, _ := alloc.AllocFrame()
	npt := &Space{Ctl: ctl, Root: nptRoot}
	if err := npt.zeroFrame(nptRoot); err != nil {
		t.Fatal(err)
	}
	for gfn := hw.PFN(0); gfn < 32; gfn++ {
		if err := npt.Map(alloc, uint64(gfn.Addr()), MakePTE(gfn+64, FlagP|FlagW)); err != nil {
			t.Fatal(err)
		}
	}

	n := &Nested{Ctl: ctl, NPT: npt, ASID: 7}

	// Guest page table lives at GPA page 0 (=HPA page 64), encrypted.
	// Build it by writing through the controller with the guest key.
	gRoot := uint64(0) // GPA of guest root table
	n.GuestRoot = gRoot
	zero := make([]byte, hw.PageSize)
	for _, gfn := range []hw.PFN{0, 1, 2} {
		if err := ctl.Write(hw.Access{PA: (gfn + 64).Addr(), Encrypted: true, ASID: 7}, zero); err != nil {
			t.Fatal(err)
		}
	}
	// Map GVA 0x4000 -> GPA page 5, encrypted (C-bit in guest PTE).
	writeGuestPTE := func(tableGFN hw.PFN, idx int, pte PTE) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(pte) >> (8 * i))
		}
		pa := (tableGFN + 64).Addr() + hw.PhysAddr(idx*8)
		if err := ctl.Write(hw.Access{PA: pa, Encrypted: true, ASID: 7}, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	gva := uint64(0x4000)
	writeGuestPTE(0, Index(gva, 2), MakePTE(1, FlagP|FlagW|FlagU))
	writeGuestPTE(1, Index(gva, 1), MakePTE(2, FlagP|FlagW|FlagU))
	writeGuestPTE(2, Index(gva, 0), MakePTE(5, FlagP|FlagW|FlagC))
	// And GVA 0x5000 -> GPA page 6, *without* guest C-bit.
	writeGuestPTE(2, Index(0x5000, 0), MakePTE(6, FlagP|FlagW))
	return n, alloc, ctl, 64
}

func TestNestedTranslate(t *testing.T) {
	n, _, _, off := buildNested(t)
	tr, err := n.Translate(0x4000, Write, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.GPA != 5*hw.PageSize {
		t.Fatalf("gpa %#x want %#x", tr.GPA, 5*hw.PageSize)
	}
	if tr.Access.PA != hw.PFN(5+int(off)).Addr() {
		t.Fatalf("hpa %#x want %#x", tr.Access.PA, hw.PFN(5+int(off)).Addr())
	}
	if !tr.Access.Encrypted || tr.Access.ASID != 7 {
		t.Fatalf("C-bit in guest PTE must select the guest key: %+v", tr)
	}
}

func TestNestedCBitPriority(t *testing.T) {
	n, _, _, _ := buildNested(t)
	// Without NPT C-bit, a guest-plaintext page is plaintext.
	tr, err := n.Translate(0x5000, Read, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Access.Encrypted {
		t.Fatalf("no C-bit anywhere, yet encrypted: %+v", tr)
	}
	// Set the C-bit in the NPT entry for GPA page 6 (the SME simulation
	// trick from Section 7.1): now the host key applies.
	leaf, err := n.NPT.Leaf(6 * hw.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.NPT.SetLeaf(6*hw.PageSize, leaf.WithFlags(FlagC)); err != nil {
		t.Fatal(err)
	}
	tr, err = n.Translate(0x5000, Read, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Access.Encrypted || tr.Access.ASID != hw.HostASID {
		t.Fatalf("NPT C-bit must select host key: %+v", tr)
	}
	// Guest C-bit still takes priority over NPT C-bit.
	tr, err = n.Translate(0x4000, Read, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Access.ASID != 7 {
		t.Fatalf("guest C-bit must take priority: %+v", tr)
	}
}

func TestNestedFaultKinds(t *testing.T) {
	n, _, _, _ := buildNested(t)
	// Guest-dimension fault: unmapped GVA.
	_, err := n.Translate(0x9000, Read, false)
	var pf *PageFault
	if !errors.As(err, &pf) {
		t.Fatalf("want guest PageFault, got %v", err)
	}
	// NPT-dimension fault: GVA mapped to a GPA beyond the NPT range.
	// GPA page 40 is not mapped in the NPT.
	var b [8]byte
	pte := MakePTE(40, FlagP|FlagW)
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(pte) >> (8 * i))
	}
	pa := hw.PFN(2+64).Addr() + hw.PhysAddr(Index(0x6000, 0)*8)
	if err := n.Ctl.Write(hw.Access{PA: pa, Encrypted: true, ASID: 7}, b[:]); err != nil {
		t.Fatal(err)
	}
	_, err = n.Translate(0x6000, Read, false)
	var nv *NPTViolation
	if !errors.As(err, &nv) {
		t.Fatalf("want NPTViolation, got %v", err)
	}
	if nv.GPA != 40*hw.PageSize {
		t.Fatalf("violation gpa %#x want %#x", nv.GPA, 40*hw.PageSize)
	}
}

func TestNestedGuestPermissions(t *testing.T) {
	n, _, _, _ := buildNested(t)
	// User access to a supervisor-only page.
	if _, err := n.Translate(0x4000, Read, true); err == nil {
		t.Fatal("guest leaf lacks U on the final level... ")
	}
}

func TestEndToEndEncryptedGuestMemory(t *testing.T) {
	n, _, ctl, _ := buildNested(t)
	tr, err := n.Translate(0x4000, Write, false)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("guest secret visible only with Kvek!")
	if err := ctl.Write(tr.Access, secret); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, len(secret))
	if err := ctl.Mem.ReadRaw(tr.Access.PA, raw); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, secret) {
		t.Fatal("guest memory is plaintext in DRAM")
	}
	got := make([]byte, len(secret))
	if err := ctl.Read(hw.Access{PA: tr.Access.PA, Encrypted: true, ASID: 7}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("guest cannot read its own memory back")
	}
}

func TestPTEBits(t *testing.T) {
	p := MakePTE(0x1234, FlagP|FlagW|FlagC|FlagNX)
	if !p.Present() || !p.Writable() || !p.Encrypted() || !p.NoExec() || p.User() {
		t.Fatalf("bit accessors wrong: %v", p)
	}
	if p.PFN() != 0x1234 {
		t.Fatalf("pfn %#x", uint64(p.PFN()))
	}
	q := p.WithoutFlags(FlagW | FlagNX).WithFlags(FlagU)
	if q.Writable() || q.NoExec() || !q.User() {
		t.Fatalf("flag editing wrong: %v", q)
	}
	if PTE(0).String() != "<not present>" {
		t.Fatal("String for non-present")
	}
}

func TestPropertyPFNRoundTrip(t *testing.T) {
	f := func(pfn uint32, flags uint8) bool {
		var fl Flags
		if flags&1 != 0 {
			fl |= FlagP
		}
		if flags&2 != 0 {
			fl |= FlagW
		}
		if flags&4 != 0 {
			fl |= FlagC
		}
		if flags&8 != 0 {
			fl |= FlagNX
		}
		p := MakePTE(hw.PFN(pfn), fl)
		return p.PFN() == hw.PFN(pfn) &&
			p.Present() == (flags&1 != 0) &&
			p.Writable() == (flags&2 != 0) &&
			p.Encrypted() == (flags&4 != 0) &&
			p.NoExec() == (flags&8 != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIndexDecomposition(t *testing.T) {
	f := func(va uint64) bool {
		va &= 1<<VABits - 1
		recomposed := uint64(Index(va, 2))<<30 | uint64(Index(va, 1))<<21 | uint64(Index(va, 0))<<12 | va&0xfff
		return recomposed == va
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapOutOfFrames(t *testing.T) {
	s, alloc, _ := newTestSpace(t, 64)
	alloc.max = alloc.next // exhaust
	err := s.Map(alloc, 0x1000, MakePTE(1, FlagP))
	if err == nil {
		t.Fatal("expected allocation failure")
	}
	if want := "allocating"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q should mention %q", err, want)
	}
}

// TestGuestAccessRule pins the one C-bit rule over its three inputs: an
// SEV guest's private access uses its own key; everything else — every
// access of a guest without SEV — uses the host key under an NPT C-bit
// and is plaintext without one.
func TestGuestAccessRule(t *testing.T) {
	const pa = hw.PhysAddr(0x7000)
	plain := hw.Access{PA: pa}
	host := hw.Access{PA: pa, Encrypted: true, ASID: hw.HostASID}
	guest := hw.Access{PA: pa, Encrypted: true, ASID: 7}
	for _, tc := range []struct {
		asid    hw.ASID
		private bool
		nptC    bool
		want    hw.Access
	}{
		{7, true, false, guest},
		{7, true, true, guest},
		{7, false, false, plain},
		{7, false, true, host},
		{hw.HostASID, true, false, plain},
		{hw.HostASID, true, true, host},
		{hw.HostASID, false, false, plain},
		{hw.HostASID, false, true, host},
	} {
		npte := MakePTE(7, FlagP|FlagW)
		if tc.nptC {
			npte = npte.WithFlags(FlagC)
		}
		if got := GuestAccess(pa, tc.asid, tc.private, npte); got != tc.want {
			t.Errorf("asid %d private %v npt C-bit %v: got %+v, want %+v",
				tc.asid, tc.private, tc.nptC, got, tc.want)
		}
	}
}
