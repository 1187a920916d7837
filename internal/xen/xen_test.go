package xen

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"fidelius/internal/cpu"
	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/isa"
)

func newXen(t *testing.T) *Xen {
	t.Helper()
	m, err := NewMachine(Config{MemPages: 2048, CacheLines: 512})
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestMachineStubsMonopolised(t *testing.T) {
	x := newXen(t)
	code, err := x.M.CodeRegion()
	if err != nil {
		t.Fatal(err)
	}
	fs := isa.ScanPrivileged(code)
	// Exactly the seven sanctioned instructions, nothing else.
	if len(fs) != 7 {
		t.Fatalf("found %d privileged opcodes, want 7: %+v", len(fs), fs)
	}
	allowed := map[int]isa.Op{}
	base := x.M.Stubs.Base
	for addr, op := range map[uint64]isa.Op{
		x.M.Stubs.MovCR0: isa.OpMovCR0,
		x.M.Stubs.MovCR4: isa.OpMovCR4,
		x.M.Stubs.Wrmsr:  isa.OpWrmsr,
		x.M.Stubs.Lgdt:   isa.OpLgdt,
		x.M.Stubs.Lidt:   isa.OpLidt,
		x.M.Stubs.Vmrun:  isa.OpVmrun,
		x.M.Stubs.MovCR3: isa.OpMovCR3,
	} {
		allowed[int(addr-base)] = op
	}
	if !isa.Monopolised(code, allowed) {
		t.Fatal("stub region not monopolised at expected offsets")
	}

	// A MOVI whose immediate starts with a VMRUN byte, planted past the
	// always-mapped stubs: jumping two bytes into it executes VMRUN.
	const at = 64
	planted := append([]byte{}, code...)
	copy(planted[at:], isa.Inst{Op: isa.OpMovImm, Imm: uint64(isa.OpVmrun)}.Encode(nil))
	if isa.Monopolised(planted, allowed) {
		t.Fatal("a planted unaligned VMRUN gadget passed the monopolisation check")
	}
	gadget := isa.Finding{Offset: at + 2, Op: isa.OpVmrun}
	if fs = isa.ScanPrivileged(planted); len(fs) != 8 || fs[5] != gadget {
		t.Fatalf("scanner did not report the planted gadget as an unaligned VMRUN: %+v", fs)
	}
}

func TestMovCR3StubAtPageEnd(t *testing.T) {
	x := newXen(t)
	if x.M.Stubs.MovCR3%hw.PageSize != hw.PageSize-2 {
		t.Fatalf("mov cr3 stub at offset %#x, want page end", x.M.Stubs.MovCR3%hw.PageSize)
	}
	if x.M.Stubs.ContPg != x.M.Stubs.MovCR3Pg+hw.PageSize {
		t.Fatal("continuation page must immediately follow the mov cr3 page")
	}
}

func TestGuestMemoryEncryption(t *testing.T) {
	x := newXen(t)
	d, err := x.CreateDomain(DomainConfig{Name: "guest", MemPages: 32, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.WriteStartInfo(d); err != nil {
		t.Fatal(err)
	}
	secret := []byte("this never leaves the guest key domain")
	var capturedHPA hw.PhysAddr
	x.StartVCPU(d, func(g *GuestEnv) error {
		if err := g.Write(0x5000, secret); err != nil {
			return err
		}
		got := make([]byte, len(secret))
		if err := g.Read(0x5000, got); err != nil {
			return err
		}
		if !bytes.Equal(got, secret) {
			t.Error("guest read-back mismatch")
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	// Find the backing frame and confirm DRAM ciphertext.
	pfn, ok := d.GPAFrame(5)
	if !ok {
		t.Fatal("gfn 5 unbacked despite eager population")
	}
	capturedHPA = pfn.Addr()
	raw := make([]byte, len(secret))
	if err := x.M.Ctl.Mem.ReadRaw(capturedHPA, raw); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, secret) {
		t.Fatal("SEV guest memory is plaintext in DRAM")
	}
}

func TestNonSEVGuestIsPlaintext(t *testing.T) {
	x := newXen(t)
	d, err := x.CreateDomain(DomainConfig{Name: "plain", MemPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	x.StartVCPU(d, func(g *GuestEnv) error {
		return g.Write(0x3000, []byte("visible"))
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	pfn, _ := d.GPAFrame(3)
	raw := make([]byte, 7)
	x.M.Ctl.Mem.ReadRaw(pfn.Addr(), raw)
	if !bytes.Equal(raw, []byte("visible")) {
		t.Fatal("non-SEV guest memory should be plaintext")
	}
}

func TestVoidHypercallAndCPUID(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "hc", MemPages: 16, SEV: true})
	var cpuidRegs [4]uint64
	x.StartVCPU(d, func(g *GuestEnv) error {
		if _, err := g.Hypercall(HCVoid); err != nil {
			return err
		}
		cpuidRegs = g.CPUID(0)
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if cpuidRegs[0] != 0x0F1DE115 || cpuidRegs[1] != 0x414D44 {
		t.Fatalf("cpuid regs %#x", cpuidRegs)
	}
	if x.ExitCount(cpu.ExitVMMCALL) != 1 || x.ExitCount(cpu.ExitCPUID) != 1 {
		t.Fatalf("exit counts %v", x.ExitCountsSnapshot())
	}
}

func TestLazyNPTPopulation(t *testing.T) {
	x := newXen(t)
	d, err := x.CreateDomain(DomainConfig{Name: "lazy", MemPages: 16, SEV: true, Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	x.StartVCPU(d, func(g *GuestEnv) error {
		if err := g.Write(0x2000, []byte("lazy fill")); err != nil {
			return err
		}
		buf := make([]byte, 9)
		if err := g.Read(0x2000, buf); err != nil {
			return err
		}
		if string(buf) != "lazy fill" {
			t.Error("lazy read-back mismatch")
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if x.ExitCount(cpu.ExitNPF) == 0 {
		t.Fatal("expected NPT violations with lazy population")
	}
	if _, ok := d.GPAFrame(2); !ok {
		t.Fatal("faulted frame not backed")
	}
}

func TestGuestBeyondMemoryGetsInjectedFault(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "oob", MemPages: 8, SEV: true})
	var accessErr error
	x.StartVCPU(d, func(g *GuestEnv) error {
		// Far beyond guest memory and the grant window.
		accessErr = g.Write(uint64(1000)<<hw.PageShift, []byte{1})
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(accessErr, ErrInjectedFault) {
		t.Fatalf("want injected fault, got %v", accessErr)
	}
}

func TestGuestPagingAndCBitControl(t *testing.T) {
	x := newXen(t)
	d, err := x.CreateDomain(DomainConfig{Name: "paging", MemPages: 48, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	secretGFN := uint64(5)
	plainGFN := uint64(6)
	x.StartVCPU(d, func(g *GuestEnv) error {
		root, err := g.BuildIdentityPT(map[uint64]bool{plainGFN: true})
		if err != nil {
			return err
		}
		g.EnablePaging(root)
		if err := g.Write(secretGFN<<hw.PageShift, []byte("encrypted page")); err != nil {
			return err
		}
		return g.Write(plainGFN<<hw.PageShift, []byte("plain page data"))
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	// The C-bit page is ciphertext in DRAM, the C=0 page plaintext.
	spfn, _ := d.GPAFrame(secretGFN)
	ppfn, _ := d.GPAFrame(plainGFN)
	raw := make([]byte, 14)
	x.M.Ctl.Mem.ReadRaw(spfn.Addr(), raw)
	if bytes.Equal(raw, []byte("encrypted page")) {
		t.Fatal("C-bit page is plaintext in DRAM")
	}
	raw2 := make([]byte, 15)
	x.M.Ctl.Mem.ReadRaw(ppfn.Addr(), raw2)
	if !bytes.Equal(raw2, []byte("plain page data")) {
		t.Fatal("C=0 page should be plaintext in DRAM")
	}
}

func TestGrantSharingBetweenGuests(t *testing.T) {
	x := newXen(t)
	granter, err := x.CreateDomain(DomainConfig{Name: "granter", MemPages: 16, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	grantee, err := x.CreateDomain(DomainConfig{Name: "grantee", MemPages: 16, SEV: true})
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("shared plaintext region")
	var ref uint64
	x.StartVCPU(granter, func(g *GuestEnv) error {
		// Shared data must be unencrypted for the peer to read it.
		if err := g.WriteUnencrypted(7<<hw.PageShift, msg); err != nil {
			return err
		}
		r, err := g.Hypercall(HCGrantTableOp, GntOpGrant, uint64(grantee.ID), 7, 0)
		if err != nil {
			return err
		}
		ref = r
		return nil
	})
	if err := x.Run(granter); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(msg))
	x.StartVCPU(grantee, func(g *GuestEnv) error {
		dst := uint64(grantee.MemPages) // first grant-window slot
		if _, err := g.Hypercall(HCGrantTableOp, GntOpMap, uint64(granter.ID), ref, dst); err != nil {
			return err
		}
		return g.ReadUnencrypted(dst<<hw.PageShift, got)
	})
	if err := x.Run(grantee); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("grantee read %q, want %q", got, msg)
	}
}

func TestReadOnlyGrantBlocksWrites(t *testing.T) {
	x := newXen(t)
	granter, _ := x.CreateDomain(DomainConfig{Name: "granter", MemPages: 16, SEV: true})
	grantee, _ := x.CreateDomain(DomainConfig{Name: "grantee", MemPages: 16, SEV: true})

	var ref uint64
	x.StartVCPU(granter, func(g *GuestEnv) error {
		r, err := g.Hypercall(HCGrantTableOp, GntOpGrant, uint64(grantee.ID), 3, uint64(GrantReadOnly))
		ref = r
		return err
	})
	if err := x.Run(granter); err != nil {
		t.Fatal(err)
	}
	var writeErr error
	x.StartVCPU(grantee, func(g *GuestEnv) error {
		dst := uint64(grantee.MemPages)
		if _, err := g.Hypercall(HCGrantTableOp, GntOpMap, uint64(granter.ID), ref, dst); err != nil {
			return err
		}
		writeErr = g.WriteUnencrypted(dst<<hw.PageShift, []byte{1})
		return nil
	})
	if err := x.Run(grantee); err != nil {
		t.Fatal(err)
	}
	if writeErr == nil {
		t.Fatal("write through read-only grant mapping should fail")
	}
}

func TestGrantValidation(t *testing.T) {
	x := newXen(t)
	granter, _ := x.CreateDomain(DomainConfig{Name: "granter", MemPages: 16, SEV: true})
	grantee, _ := x.CreateDomain(DomainConfig{Name: "grantee", MemPages: 16, SEV: true})
	other, _ := x.CreateDomain(DomainConfig{Name: "other", MemPages: 16, SEV: true})

	var ref uint64
	x.StartVCPU(granter, func(g *GuestEnv) error {
		r, err := g.Hypercall(HCGrantTableOp, GntOpGrant, uint64(grantee.ID), 2, 0)
		ref = r
		return err
	})
	if err := x.Run(granter); err != nil {
		t.Fatal(err)
	}
	// A third domain cannot map a grant addressed to someone else.
	var mapErr error
	x.StartVCPU(other, func(g *GuestEnv) error {
		_, mapErr = g.Hypercall(HCGrantTableOp, GntOpMap, uint64(granter.ID), ref, uint64(other.MemPages))
		return nil
	})
	if err := x.Run(other); err != nil {
		t.Fatal(err)
	}
	if mapErr == nil {
		t.Fatal("mapping someone else's grant must fail")
	}
}

func runBlockGuest(t *testing.T, x *Xen, d *Domain, fn GuestFunc) {
	t.Helper()
	x.StartVCPU(d, fn)
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
}

func TestPVBlockIO(t *testing.T) {
	x := newXen(t)
	d, err := x.CreateDomain(DomainConfig{Name: "io", MemPages: 32, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	dk := disk.New(256)
	backend, err := x.AttachBlockDevice(d, dk, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	backend.SnoopEnabled = true
	if err := x.WriteStartInfo(d); err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte("PLAINTEXT-SECTOR"), disk.SectorSize/16*3) // 3 sectors
	runBlockGuest(t, x, d, func(g *GuestEnv) error {
		f, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		if err := f.WriteSectors(10, payload); err != nil {
			return err
		}
		got := make([]byte, len(payload))
		if err := f.ReadSectors(10, got); err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Error("block I/O round trip mismatch")
		}
		return nil
	})
	// The baseline front-end leaks plaintext to the backend — the attack
	// surface Fidelius's I/O protection closes.
	if !bytes.Contains(backend.Snoop, []byte("PLAINTEXT-SECTOR")) {
		t.Fatal("baseline backend should observe plaintext")
	}
	// And the disk itself holds plaintext.
	if !bytes.Contains(dk.Snapshot(), []byte("PLAINTEXT-SECTOR")) {
		t.Fatal("baseline disk should hold plaintext")
	}
}

func TestPVBlockLargeTransferChunks(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "io2", MemPages: 32, SEV: true})
	dk := disk.New(256)
	if _, err := x.AttachBlockDevice(d, dk, 1, 1); err != nil { // 8-sector window
		t.Fatal(err)
	}
	x.WriteStartInfo(d)
	payload := make([]byte, 20*disk.SectorSize) // 20 sectors > window
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var requests uint64
	runBlockGuest(t, x, d, func(g *GuestEnv) error {
		f, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		if err := f.WriteSectors(0, payload); err != nil {
			return err
		}
		got := make([]byte, len(payload))
		if err := f.ReadSectors(0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Error("chunked transfer mismatch")
		}
		requests = f.nextID
		return nil
	})
	if requests != 6 { // 20 sectors / 8-sector window = 3 writes + 3 reads
		t.Fatalf("expected 6 ring round trips, got %d", requests)
	}
}

func TestStartInfoRoundTrip(t *testing.T) {
	si := &StartInfo{DomID: 3, MemPages: 64, RingGFN: 1, DataGFN: 2, DataLen: 4, Port: 9, ServeGFN: 7, ServePort: 11}
	got, err := UnmarshalStartInfo(si.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *si {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, si)
	}
	if _, err := UnmarshalStartInfo([]byte{1}); err == nil {
		t.Fatal("short start info must error")
	}
}

func TestGrantEntryRoundTrip(t *testing.T) {
	e := GrantEntry{Flags: GrantInUse | GrantReadOnly, Grantee: 7, GFN: 0x1234}
	var b [GrantEntrySize]byte
	e.Marshal(b[:])
	if got := UnmarshalGrantEntry(b[:]); got != e {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
	}
}

func TestDestroyDomainReclaimsFrames(t *testing.T) {
	x := newXen(t)
	before := x.M.Alloc.FreeCount()
	d, err := x.CreateDomain(DomainConfig{Name: "temp", MemPages: 16, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	mid := x.M.Alloc.FreeCount()
	if mid >= before {
		t.Fatal("domain creation should consume frames")
	}
	if err := x.DestroyDomain(d); err != nil {
		t.Fatal(err)
	}
	after := x.M.Alloc.FreeCount()
	// Start-info page is not reclaimed (write-once regions persist);
	// everything else returns.
	if after < before-1 {
		t.Fatalf("frames leaked: before=%d after=%d", before, after)
	}
	if _, ok := x.Dom(d.ID); ok {
		t.Fatal("domain still registered after destroy")
	}
	// Destroy is idempotent.
	if err := x.DestroyDomain(d); err != nil {
		t.Fatal(err)
	}
}

func TestRefusedCreateDomainKeepsNoFrames(t *testing.T) {
	m, err := NewMachine(Config{MemPages: 1024, CacheLines: 64})
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Alloc.FreeCount()
	if _, err := x.CreateDomain(DomainConfig{Name: "huge", MemPages: 2000, SEV: true}); err == nil {
		t.Fatal("a domain larger than the machine was created")
	}
	if got := m.Alloc.FreeCount(); got != before {
		t.Fatalf("refused domain kept frames: free %d, want %d", got, before)
	}
	if len(x.Doms) != 0 || x.ASIDs.Live() != 0 {
		t.Fatalf("refused domain left %d domains and %d live asids", len(x.Doms), x.ASIDs.Live())
	}
	d, err := x.CreateDomain(DomainConfig{Name: "small", MemPages: 16, SEV: true})
	if err != nil {
		t.Fatalf("small domain after a refused one: %v", err)
	}
	if err := x.DestroyDomain(d); err != nil {
		t.Fatal(err)
	}
}

func TestFrameAllocAccounting(t *testing.T) {
	a := NewFrameAlloc(2, 10)
	if a.Total() != 10 || a.FreeCount() != 8 {
		t.Fatalf("total=%d free=%d", a.Total(), a.FreeCount())
	}
	pfn, err := a.Alloc(UseGuest, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fi := a.frames[pfn]; fi.Use != UseGuest || fi.Owner != 3 {
		t.Fatalf("info %+v", fi)
	}
	a.SetUse(pfn, UseShared, 3)
	if fi := a.frames[pfn]; fi.Use != UseShared {
		t.Fatal("SetUse failed")
	}
	a.Free(pfn)
	if a.FreeCount() != 8 {
		t.Fatal("free count after Free")
	}
	a.Free(pfn) // double free is a no-op
	if a.FreeCount() != 8 {
		t.Fatal("double free changed accounting")
	}
	if a.frames[0].Use != UseReserved {
		t.Fatal("reserved frame")
	}
	count := 0
	a.ForEach(func(hw.PFN, FrameInfo) { count++ })
	if count != 10 {
		t.Fatal("ForEach visited wrong count")
	}
}

func TestEventBusBinding(t *testing.T) {
	x := newXen(t)
	fired := 0
	x.Events.Bind(5, 2, func() error { fired++; return nil })
	if err := x.Events.Notify(5, 2); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatal("handler did not fire")
	}
	if err := x.Events.Notify(5, 3); err == nil {
		t.Fatal("unbound port should error")
	}
	x.Events.Bind(6, 2, func() error { return nil })
	x.Events.UnbindDomain(5)
	if err := x.Events.Notify(5, 2); err == nil {
		t.Fatal("unbound port should error")
	}
	if err := x.Events.Notify(6, 2); err != nil {
		t.Fatalf("another domain's port was unbound: %v", err)
	}
}

func TestXenStore(t *testing.T) {
	s := newXenStore()
	s.Set("device/vbd/0/ring-ref", "3")
	if v, ok := s.Get("device/vbd/0/ring-ref"); !ok || v != "3" {
		t.Fatal("get after set")
	}
	s.Delete("device/vbd/0/ring-ref")
	if _, ok := s.Get("device/vbd/0/ring-ref"); ok {
		t.Fatal("get after delete")
	}
	// Deleting a directory removes the nodes below it and nothing else.
	s.Set("device/vbd/1/ring-gfn", "1")
	s.Set("device/vbd/1/port", "2")
	s.Set("device/vbd/10/port", "3")
	s.Delete("device/vbd/1")
	if _, ok := s.Get("device/vbd/1/port"); ok || len(s.kv) != 1 {
		t.Fatalf("delete of device/vbd/1 left %v", s.kv)
	}
}

// TestDestroyDomainReleasesDevices pins that a destroyed domain takes its
// block backend, every event channel bound for it (the block ring's and a
// service's, as the serve ring binds) and its XenStore nodes with it:
// repeated attach and destroy cycles leave none of them behind.
func TestDestroyDomainReleasesDevices(t *testing.T) {
	x := newXen(t)
	handlers, keys := len(x.Events.handlers), len(x.Store.kv)
	for i := 0; i < 3; i++ {
		d, err := x.CreateDomain(DomainConfig{Name: "dev", MemPages: 32, SEV: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.AttachBlockDevice(d, disk.New(64), 2, 1); err != nil {
			t.Fatal(err)
		}
		x.Events.Bind(d.ID, 7, func() error { return nil })
		if err := x.DestroyDomain(d); err != nil {
			t.Fatal(err)
		}
	}
	if len(x.Doms) != 0 || len(x.backends) != 0 {
		t.Errorf("after destroy: %d domains, %d backends, want 0 and 0", len(x.Doms), len(x.backends))
	}
	if n := len(x.Events.handlers); n != handlers {
		t.Errorf("after destroy: %d event handlers, want %d", n, handlers)
	}
	if n := len(x.Store.kv); n != keys {
		t.Errorf("after destroy: %d XenStore keys, want %d: %v", n, keys, x.Store.kv)
	}
}

func TestRevokeAndUnmapGrant(t *testing.T) {
	x := newXen(t)
	granter, _ := x.CreateDomain(DomainConfig{Name: "g1", MemPages: 16, SEV: true})
	grantee, _ := x.CreateDomain(DomainConfig{Name: "g2", MemPages: 16, SEV: true})
	var ref uint64
	x.StartVCPU(granter, func(g *GuestEnv) error {
		r, err := g.Hypercall(HCGrantTableOp, GntOpGrant, uint64(grantee.ID), 4, 0)
		ref = r
		if err != nil {
			return err
		}
		_, err = g.Hypercall(HCGrantTableOp, GntOpRevoke, r)
		return err
	})
	if err := x.Run(granter); err != nil {
		t.Fatal(err)
	}
	// After revocation the grantee cannot map it.
	var mapErr error
	x.StartVCPU(grantee, func(g *GuestEnv) error {
		_, mapErr = g.Hypercall(HCGrantTableOp, GntOpMap, uint64(granter.ID), ref, uint64(grantee.MemPages))
		return nil
	})
	if err := x.Run(grantee); err != nil {
		t.Fatal(err)
	}
	if mapErr == nil {
		t.Fatal("mapping a revoked grant must fail")
	}
}

// TestEnablePagingFlushesGuestTLB: loading CR3 flushes the TLB. A page an
// SEV guest touched before paging, when its accesses were private, must
// take the C-bit of its new guest mapping after EnablePaging: a C=0 page
// written after paging is plaintext to the shared window.
func TestEnablePagingFlushesGuestTLB(t *testing.T) {
	x := newXen(t)
	d, err := x.CreateDomain(DomainConfig{Name: "cr3", MemPages: 48, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	const gfn = 9
	msg := []byte("deliberately plain")
	got := make([]byte, len(msg))
	x.StartVCPU(d, func(g *GuestEnv) error {
		if err := g.Write(gfn<<hw.PageShift, []byte("private before paging")); err != nil {
			return err
		}
		root, err := g.BuildIdentityPT(map[uint64]bool{gfn: true})
		if err != nil {
			return err
		}
		g.EnablePaging(root)
		if err := g.Write(gfn<<hw.PageShift, msg); err != nil {
			return err
		}
		return g.ReadUnencrypted(gfn<<hw.PageShift, got)
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("C=0 page written after paging reads %q through the shared window, want %q", got, msg)
	}
}

// Get reads a value.
func (s *XenStore) Get(key string) (string, bool) {
	s.mu.RLock()
	v, ok := s.kv[key]
	s.mu.RUnlock()
	return v, ok
}

// UnmarshalStartInfo decodes a start-info record.
func UnmarshalStartInfo(b []byte) (*StartInfo, error) {
	if len(b) < StartInfoSize {
		return nil, fmt.Errorf("xen: short start info")
	}
	get := func(off int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(b[off+i]) << (8 * i)
		}
		return v
	}
	return &StartInfo{
		DomID:       DomID(get(0)),
		MemPages:    get(8),
		RingGFN:     get(16),
		DataGFN:     get(24),
		DataLen:     get(32),
		Port:        uint32(get(40)),
		ServeGFN:    get(48),
		ServePort:   uint32(get(56)),
		ServeFrames: get(64),
	}, nil
}

// FreeCount reports the number of free frames.
func (a *FrameAlloc) FreeCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}

// ExitCountsSnapshot returns the non-zero exit-reason tallies as a map.
func (x *Xen) ExitCountsSnapshot() map[cpu.ExitReason]uint64 {
	out := make(map[cpu.ExitReason]uint64)
	for i := range x.exitCounts {
		if n := x.exitCounts[i].Load(); n > 0 {
			out[cpu.ExitReason(i)] = n
		}
	}
	return out
}
