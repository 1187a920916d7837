package core

import (
	"bytes"
	"errors"
	"testing"

	"fidelius/internal/cpu"
	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/mmu"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

// newPlatform boots a machine, the hypervisor, and Fidelius on top.
func newPlatform(t *testing.T) (*xen.Xen, *Fidelius) {
	t.Helper()
	m, err := xen.NewMachine(xen.Config{MemPages: 4096, CacheLines: 1024})
	if err != nil {
		t.Fatal(err)
	}
	x, err := xen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Enable(x)
	if err != nil {
		t.Fatal(err)
	}
	return x, f
}

// newBundle prepares an owner bundle with the given kernel and disk
// payloads.
func newBundle(t *testing.T, f *Fidelius, kernel, diskPlain []byte) (*GuestBundle, [32]byte) {
	t.Helper()
	owner, err := sev.NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	pub, err := f.M.FW.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	b, kblk, err := PrepareGuest(owner, pub, kernel, diskPlain)
	if err != nil {
		t.Fatal(err)
	}
	return b, kblk
}

func TestEnableMeasuresAndProtects(t *testing.T) {
	x, f := newPlatform(t)
	if f.HypervisorMeasurement == [32]byte{} {
		t.Fatal("no hypervisor measurement")
	}
	// The hypervisor's page-table-pages are read-only: a direct CPU
	// write faults.
	pages, err := x.M.HostPT.TablePages()
	if err != nil {
		t.Fatal(err)
	}
	err = x.M.CPU.Write64(uint64(pages[0].Addr()), 0xE711)
	var pf *mmu.PageFault
	if !errors.As(err, &pf) || pf.Reason != mmu.WriteProtected {
		t.Fatalf("want WP fault on page-table write, got %v", err)
	}
	// The VMRUN and MOV CR3 stub pages are unmapped.
	for _, va := range []uint64{x.M.Stubs.VmrunPg, x.M.Stubs.MovCR3Pg} {
		if err := x.M.CPU.ReadVA(va, make([]byte, 1)); err == nil {
			t.Fatalf("stub page %#x still mapped", va)
		}
	}
}

func TestEnableRejectsUnsanctionedPrivilegedCode(t *testing.T) {
	m, err := xen.NewMachine(xen.Config{MemPages: 512, CacheLines: 64})
	if err != nil {
		t.Fatal(err)
	}
	x, err := xen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a privileged gadget in the code region before enabling.
	gadget := []byte{0xF4} // vmrun opcode byte inside the code page
	if err := m.Ctl.Mem.WriteRaw(m.Stubs.Pages[0].Addr()+2000, gadget); err != nil {
		t.Fatal(err)
	}
	if _, err := Enable(x); !errors.Is(err, ErrNotMonopolised) {
		t.Fatalf("want ErrNotMonopolised, got %v", err)
	}
}

func TestProtectedVMLifecycle(t *testing.T) {
	x, f := newPlatform(t)
	kernel := bytes.Repeat([]byte("KERNELKERNELKERN"), 512) // 2 pages
	b, _ := newBundle(t, f, kernel, nil)
	d, err := f.LaunchVM("guest", 64, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.WriteStartInfo(d); err != nil {
		t.Fatal(err)
	}

	// The guest can read its decrypted kernel and its embedded Kblk.
	kbase := f.KernelBase(d, b) << hw.PageShift
	var guestKernel []byte
	var guestKblk [32]byte
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		guestKernel = make([]byte, 64)
		if err := g.Read(kbase, guestKernel); err != nil {
			return err
		}
		if err := g.Read(kbase+KblkOffset, guestKblk[:]); err != nil {
			return err
		}
		// Normal computation with hypercalls mixed in.
		if _, err := g.Hypercall(xen.HCVoid); err != nil {
			return err
		}
		return g.Write(0x8000, []byte("runtime state"))
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(guestKernel[:16], []byte("KERNELKERNELKERN")) {
		// Bytes 64..96 hold Kblk, the rest is kernel text.
		t.Fatalf("guest kernel mismatch: %q", guestKernel[:16])
	}
	if guestKblk == ([32]byte{}) {
		t.Fatal("guest did not receive Kblk")
	}

	// The hypervisor cannot read the guest's memory: the frame is
	// unmapped from the host space.
	pfn, _ := d.GPAFrame(8)
	err = x.M.CPU.ReadVA(uint64(pfn.Addr()), make([]byte, 8))
	if err == nil {
		t.Fatal("hypervisor can still touch protected guest memory")
	}
	// And the DRAM view is ciphertext.
	raw := make([]byte, 13)
	x.M.Ctl.Mem.ReadRaw(pfn.Addr(), raw)
	if bytes.Equal(raw, []byte("runtime state")) {
		t.Fatal("guest memory is plaintext in DRAM")
	}

	// Shutdown scrubs everything.
	if err := f.ShutdownVM(d); err != nil {
		t.Fatal(err)
	}
	if _, ok := x.Dom(d.ID); ok {
		t.Fatal("domain survived shutdown")
	}
	e, _ := f.PIT.Get(pfn)
	if e.Valid() {
		t.Fatal("PIT entry survived shutdown")
	}
}

func TestLaunchRejectsTamperedImage(t *testing.T) {
	x, f := newPlatform(t)
	b, _ := newBundle(t, f, bytes.Repeat([]byte{1}, hw.PageSize), nil)
	b.Image.Pages[0].Data[7] ^= 0xFF
	// A refused launch leaves nothing behind, so more refusals than the
	// machine has frames for still leave room for a genuine launch.
	doms, live := len(x.Doms), x.ASIDs.Live()
	for i := 0; i <= x.M.Alloc.Total()/32; i++ {
		if _, err := f.LaunchVM("tampered", 32, b); err == nil {
			t.Fatal("tampered kernel image booted")
		}
		if len(x.Doms) != doms || x.ASIDs.Live() != live {
			t.Fatalf("refusal %d left %d domains and %d live asids, want %d and %d",
				i, len(x.Doms), x.ASIDs.Live(), doms, live)
		}
	}
	genuine, _ := newBundle(t, f, bytes.Repeat([]byte{1}, hw.PageSize), nil)
	if _, err := f.LaunchVM("genuine", 32, genuine); err != nil {
		t.Fatalf("genuine launch after refusals: %v", err)
	}
}

func TestShadowingMasksGuestState(t *testing.T) {
	x, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("shadow", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	secret := uint64(0xDEAD5EC0)
	var observedRegs [cpu.NumRegs]uint64
	hooked := false
	// Observe what the hypervisor sees at a void-hypercall exit.
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		g.Regs[6] = secret // a register the exit reason does not expose
		_, err := g.Hypercall(xen.HCVoid)
		if err != nil {
			return err
		}
		if g.Regs[6] != secret {
			t.Error("guest register not restored after exit")
		}
		return nil
	})
	// Wrap the exit path: record the CPU register file as the
	// hypervisor would see it during handling.
	prev := x.Interpose
	x.Interpose = &snoopInterposer{Interposer: prev, onExit: func() {
		observedRegs = x.M.CPU.Regs
		hooked = true
	}}
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Fatal("snoop did not run")
	}
	if observedRegs[6] == secret {
		t.Fatal("guest register leaked to the hypervisor despite masking")
	}
}

// snoopInterposer delegates to Fidelius but observes the post-shadow
// state, standing in for hypervisor code inspecting registers.
type snoopInterposer struct {
	xen.Interposer
	onExit func()
}

func (s *snoopInterposer) OnVMExit(d *xen.Domain, pa hw.PhysAddr) error {
	err := s.Interposer.OnVMExit(d, pa)
	s.onExit()
	return err
}

func TestVMCBTamperDetected(t *testing.T) {
	x, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("tamper", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		_, err := g.Hypercall(xen.HCVoid)
		return err
	})
	// A malicious exit handler rewrites the (masked) guest RIP in the
	// VMCB, attempting to redirect execution.
	prev := x.Interpose
	x.Interpose = &tamperInterposer{Interposer: prev, x: x, d: d}
	err = x.Run(d)
	var pe *cpu.ProtectionError
	if !errors.As(err, &pe) {
		t.Fatalf("VMCB tamper not detected: %v", err)
	}
}

type tamperInterposer struct {
	xen.Interposer
	x *xen.Xen
	d *xen.Domain
}

func (ti *tamperInterposer) OnVMExit(d *xen.Domain, pa hw.PhysAddr) error {
	if err := ti.Interposer.OnVMExit(d, pa); err != nil {
		return err
	}
	v, err := cpu.LoadVMCB(ti.x.M.Ctl, pa)
	if err != nil {
		return err
	}
	v.RIP = 0xBAD
	return cpu.StoreVMCB(ti.x.M.Ctl, pa, v)
}

func TestWriteOncePolicy(t *testing.T) {
	x, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("once", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.WriteStartInfo(d); err != nil {
		t.Fatalf("first start-info write must succeed: %v", err)
	}
	if err := x.WriteStartInfo(d); err == nil {
		t.Fatal("second start-info write must be blocked")
	}
	found := false
	for _, v := range f.Violations {
		if v.Kind == "write-once" {
			found = true
		}
	}
	if !found {
		t.Fatal("write-once violation not logged")
	}
}

func TestWriteForbiddingCodePages(t *testing.T) {
	x, f := newPlatform(t)
	err := x.M.CPU.WriteVA(x.M.Stubs.Base+100, []byte{0x90})
	if err == nil {
		t.Fatal("write to hypervisor code page succeeded")
	}
	found := false
	for _, v := range f.Violations {
		if v.Kind == "write-forbidding" {
			found = true
		}
	}
	if !found {
		t.Fatal("write-forbidding violation not logged")
	}
}

func TestExecuteOncePolicy(t *testing.T) {
	x, f := newPlatform(t)
	if err := f.M.ExecStub(x.M.Stubs.Lgdt, 0); err != nil {
		t.Fatalf("first lgdt must succeed: %v", err)
	}
	err := f.M.ExecStub(x.M.Stubs.Lgdt, 0)
	var pe *cpu.ProtectionError
	if !errors.As(err, &pe) {
		t.Fatalf("second lgdt must be vetoed, got %v", err)
	}
}

func TestTable2Policies(t *testing.T) {
	x, f := newPlatform(t)
	c := x.M.CPU
	// MOV CR0: PG and WP cannot be cleared.
	if err := f.M.ExecStub(x.M.Stubs.MovCR0, c.CR0&^cpu.CR0WP); err == nil {
		t.Fatal("WP clear permitted")
	}
	if c.WP() == false {
		t.Fatal("WP actually cleared")
	}
	if err := f.M.ExecStub(x.M.Stubs.MovCR0, c.CR0&^cpu.CR0PG); err == nil {
		t.Fatal("PG clear permitted")
	}
	// MOV CR4: SMEP cannot be cleared.
	if err := f.M.ExecStub(x.M.Stubs.MovCR4, c.CR4&^cpu.CR4SMEP); err == nil {
		t.Fatal("SMEP clear permitted")
	}
	// WRMSR: EFER.NXE cannot be cleared.
	c.Regs[1] = c.EFER &^ cpu.EFERNXE
	c.Regs[0] = cpu.MSREFER
	if err := c.Run(x.M.Stubs.Wrmsr, 4); err == nil {
		t.Fatal("NXE clear permitted")
	}
	if c.EFER&cpu.EFERNXE == 0 {
		t.Fatal("NXE actually cleared")
	}
	// MOV CR3: the target must be a valid page table root.
	err := f.gate3(x.M.Stubs.MovCR3Pg, f.savedMovCR3PTE, func() error {
		c.Regs[0] = 0x41414000 // not a page table
		return c.Run(x.M.Stubs.MovCR3, 4)
	})
	var pe *cpu.ProtectionError
	if !errors.As(err, &pe) {
		t.Fatalf("invalid CR3 target permitted: %v", err)
	}
}

func TestGateStatsAccumulate(t *testing.T) {
	x, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("stats", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name string) uint64 { return f.M.Ctl.Telem.Reg.Snapshot().Counters[name] }
	if counter("gate.type1") == 0 {
		t.Fatal("no type 1 gate transitions during domain build")
	}
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		_, err := g.Hypercall(xen.HCVoid)
		return err
	})
	g3 := counter("gate.type3")
	sh := counter("vmcb.shadows")
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if counter("gate.type3") <= g3 {
		t.Fatal("VMRUN did not use the type 3 gate")
	}
	if counter("vmcb.shadows") <= sh {
		t.Fatal("exits were not shadowed")
	}
}

func TestSecureMemorySharing(t *testing.T) {
	x, f := newPlatform(t)
	b1, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	b2, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	granter, err := f.LaunchVM("granter", 32, b1)
	if err != nil {
		t.Fatal(err)
	}
	grantee, err := f.LaunchVM("grantee", 32, b2)
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("cooperatively shared")
	var ref uint64
	x.StartVCPU(granter, func(g *xen.GuestEnv) error {
		if err := g.WriteUnencrypted(7<<hw.PageShift, msg); err != nil {
			return err
		}
		// Declare the sharing first (pre_sharing_op), then grant.
		if _, err := g.Hypercall(xen.HCPreSharingOp, uint64(grantee.ID), 7, 1, 0); err != nil {
			return err
		}
		r, err := g.Hypercall(xen.HCGrantTableOp, xen.GntOpGrant, uint64(grantee.ID), 7, 0)
		ref = r
		return err
	})
	if err := x.Run(granter); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(msg))
	x.StartVCPU(grantee, func(g *xen.GuestEnv) error {
		dst := uint64(grantee.MemPages)
		if _, err := g.Hypercall(xen.HCGrantTableOp, xen.GntOpMap, uint64(granter.ID), ref, dst); err != nil {
			return err
		}
		return g.ReadUnencrypted(dst<<hw.PageShift, got)
	})
	if err := x.Run(grantee); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("shared read %q want %q", got, msg)
	}
}

func TestGrantWithoutPreSharingVetoed(t *testing.T) {
	x, f := newPlatform(t)
	b1, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	granter, err := f.LaunchVM("granter", 32, b1)
	if err != nil {
		t.Fatal(err)
	}
	var grantErr error
	x.StartVCPU(granter, func(g *xen.GuestEnv) error {
		_, grantErr = g.Hypercall(xen.HCGrantTableOp, xen.GntOpGrant, 99, 7, 0)
		return nil
	})
	if err := x.Run(granter); err != nil {
		t.Fatal(err)
	}
	if grantErr == nil {
		t.Fatal("grant without pre_sharing_op succeeded")
	}
}

func TestGrantPermissionEscalationVetoed(t *testing.T) {
	x, f := newPlatform(t)
	b1, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	b2, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	granter, _ := f.LaunchVM("granter", 32, b1)
	grantee, _ := f.LaunchVM("grantee", 32, b2)
	var escalateErr error
	x.StartVCPU(granter, func(g *xen.GuestEnv) error {
		// Declared read-only...
		if _, err := g.Hypercall(xen.HCPreSharingOp, uint64(grantee.ID), 7, 1, uint64(xen.GrantReadOnly)); err != nil {
			return err
		}
		// ...but the grant-table entry (which a malicious hypervisor
		// could forge) asks for writable.
		_, escalateErr = g.Hypercall(xen.HCGrantTableOp, xen.GntOpGrant, uint64(grantee.ID), 7, 0)
		return nil
	})
	if err := x.Run(granter); err != nil {
		t.Fatal(err)
	}
	if escalateErr == nil {
		t.Fatal("read-only declaration escalated to writable grant")
	}
}

func TestSEVIOPathEndToEnd(t *testing.T) {
	x, f := newPlatform(t)
	diskPlain := bytes.Repeat([]byte("DISK-CONTENT-16B"), 96) // 3 sectors
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), diskPlain)
	d, err := f.LaunchVM("sevio", 64, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetupIOSession(d); err != nil {
		t.Fatal(err)
	}
	dk := disk.New(128)
	backend, err := f.AttachProtectedDisk(d, dk, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	backend.SnoopEnabled = true
	if err := x.WriteStartInfo(d); err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte("SEV-IO-SECRET!!!"), disk.SectorSize/16*2) // 2 sectors
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		bf, err := xen.NewBlockFrontend(g)
		if err != nil {
			return err
		}
		front := NewSEVFront(g, bf)
		if err := front.WriteSectors(5, payload); err != nil {
			return err
		}
		got := make([]byte, len(payload))
		if err := front.ReadSectors(5, got); err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Error("SEV I/O round trip mismatch")
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	// Neither the snooping backend nor the disk ever sees plaintext.
	if bytes.Contains(backend.Snoop, []byte("SEV-IO-SECRET!!!")) {
		t.Fatal("backend observed plaintext on the SEV I/O path")
	}
	if bytes.Contains(dk.Snapshot(), []byte("SEV-IO-SECRET!!!")) {
		t.Fatal("disk holds plaintext on the SEV I/O path")
	}
}

func TestAESNIIOPathEndToEnd(t *testing.T) {
	x, f := newPlatform(t)
	diskPlain := bytes.Repeat([]byte("FS-IMAGE-BLOCK.."), 32*8) // 8 sectors
	b, kblk := newBundle(t, f, make([]byte, hw.PageSize), diskPlain)
	d, err := f.LaunchVM("aesni", 64, b)
	if err != nil {
		t.Fatal(err)
	}
	dk := disk.New(128)
	backend, err := f.AttachProtectedDisk(d, dk, 2, 1, b)
	if err != nil {
		t.Fatal(err)
	}
	backend.SnoopEnabled = true
	if err := x.WriteStartInfo(d); err != nil {
		t.Fatal(err)
	}

	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		bf, err := xen.NewBlockFrontend(g)
		if err != nil {
			return err
		}
		// The guest reads Kblk out of its decrypted kernel image.
		var guestKblk [32]byte
		kbase := f.KernelBase(d, b) << hw.PageShift
		if err := g.Read(kbase+KblkOffset, guestKblk[:]); err != nil {
			return err
		}
		if guestKblk != kblk {
			t.Error("guest recovered the wrong Kblk")
		}
		front, err := NewAESNIFront(g, bf, guestKblk)
		if err != nil {
			return err
		}
		// Read the owner-prepared disk image: it decrypts correctly.
		got := make([]byte, 2*disk.SectorSize)
		if err := front.ReadSectors(0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, diskPlain[:len(got)]) {
			t.Error("owner disk image did not decrypt")
		}
		// Write fresh data and read it back.
		fresh := bytes.Repeat([]byte("fresh-write-data"), disk.SectorSize/16)
		if err := front.WriteSectors(20, fresh); err != nil {
			return err
		}
		back := make([]byte, len(fresh))
		if err := front.ReadSectors(20, back); err != nil {
			return err
		}
		if !bytes.Equal(back, fresh) {
			t.Error("AES-NI round trip mismatch")
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(backend.Snoop, []byte("FS-IMAGE-BLOCK..")) ||
		bytes.Contains(backend.Snoop, []byte("fresh-write-data")) {
		t.Fatal("backend observed plaintext on the AES-NI path")
	}
	if bytes.Contains(dk.Snapshot(), []byte("fresh-write-data")) {
		t.Fatal("disk holds plaintext on the AES-NI path")
	}
}

// TestAESNIWriteAllocsOnlyCipher guards the AES-NI write path: the
// front-end stages each sector's ciphertext in a buffer it owns, so a
// write allocates no more than the plaintext PV write of the same
// sectors plus what the sector cipher itself allocates.
func TestAESNIWriteAllocsOnlyCipher(t *testing.T) {
	x, f := newPlatform(t)
	b, kblk := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("aesni-allocs", 64, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AttachProtectedDisk(d, disk.New(128), 2, 1, b); err != nil {
		t.Fatal(err)
	}
	if err := x.WriteStartInfo(d); err != nil {
		t.Fatal(err)
	}
	const sectors = 2
	data := bytes.Repeat([]byte("allocation-guard"), sectors*disk.SectorSize/16)
	var plain, cipher, front float64
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		bf, err := xen.NewBlockFrontend(g)
		if err != nil {
			return err
		}
		a, err := NewAESNIFront(g, bf, kblk)
		if err != nil {
			return err
		}
		measure := func(op func() error) float64 {
			return testing.AllocsPerRun(50, func() {
				if err := op(); err != nil {
					t.Error(err)
				}
			})
		}
		plain = measure(func() error { return bf.WriteSectors(20, data) })
		sector := make([]byte, disk.SectorSize)
		cipher = measure(func() error { return a.cipher.EncryptSector(20, sector) })
		front = measure(func() error { return a.WriteSectors(20, data) })
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if limit := plain + sectors*cipher; front > limit {
		t.Fatalf("AESNIFront.WriteSectors of %d sectors allocated %v times, want at most %v (PV write %v + %d x sector cipher %v)",
			sectors, front, limit, plain, sectors, cipher)
	}
}

func TestMigration(t *testing.T) {
	// Two machines, each with its own hypervisor and Fidelius.
	x1, f1 := newPlatform(t)
	_, f2 := newPlatform(t)

	kernel := bytes.Repeat([]byte("MIGRATING-KERNEL"), 256) // 1 page
	b, _ := newBundle(t, f1, kernel, nil)
	d, err := f1.LaunchVM("migrator", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	// Run it and leave state in memory.
	x1.StartVCPU(d, func(g *xen.GuestEnv) error {
		return g.Write(0x6000, []byte("pre-migration state"))
	})
	if err := x1.Run(d); err != nil {
		t.Fatal(err)
	}

	targetPub, err := f2.M.FW.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := f1.MigrateOut(d, targetPub)
	if err != nil {
		t.Fatal(err)
	}
	// Transport packets are ciphertext.
	for _, pkt := range bundle.Packets {
		if bytes.Contains(pkt.Data, []byte("pre-migration state")) ||
			bytes.Contains(pkt.Data, []byte("MIGRATING-KERNEL")) {
			t.Fatal("migration stream holds plaintext")
		}
	}

	originPub, _ := f1.M.FW.PublicKey()
	d2, err := f2.MigrateIn(bundle, originPub)
	if err != nil {
		t.Fatal(err)
	}
	// The migrated guest sees its state.
	x2 := f2.X
	var got []byte
	x2.StartVCPU(d2, func(g *xen.GuestEnv) error {
		got = make([]byte, 19)
		return g.Read(0x6000, got)
	})
	if err := x2.Run(d2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("pre-migration state")) {
		t.Fatalf("migrated state mismatch: %q", got)
	}
}

func TestMigrationTamperDetected(t *testing.T) {
	x1, f1 := newPlatform(t)
	_, f2 := newPlatform(t)
	_ = x1
	b, _ := newBundle(t, f1, make([]byte, hw.PageSize), nil)
	d, err := f1.LaunchVM("m", 16, b)
	if err != nil {
		t.Fatal(err)
	}
	targetPub, _ := f2.M.FW.PublicKey()
	bundle, err := f1.MigrateOut(d, targetPub)
	if err != nil {
		t.Fatal(err)
	}
	bundle.Packets[3].Data[0] ^= 1
	originPub, _ := f1.M.FW.PublicKey()
	doms, live := len(f2.X.Doms), f2.X.ASIDs.Live()
	if _, err := f2.MigrateIn(bundle, originPub); err == nil {
		t.Fatal("tampered migration stream accepted")
	}
	if len(f2.X.Doms) != doms || f2.X.ASIDs.Live() != live {
		t.Fatalf("refused bundle left %d domains and %d live asids, want %d and %d",
			len(f2.X.Doms), f2.X.ASIDs.Live(), doms, live)
	}
}

func TestFideliusEncConfiguration(t *testing.T) {
	x, f := newPlatform(t)
	// Fidelius-enc: a non-SEV guest whose memory gets SME-encrypted by
	// setting NPT C-bits via the hypercall (Section 7.1).
	d, err := x.CreateDomain(xen.DomainConfig{Name: "enc", MemPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		if err := g.Write(0x5000, []byte("before enc")); err != nil {
			return err
		}
		if _, err := g.Hypercall(xen.HCEnableSME); err != nil {
			return err
		}
		// Earlier data must still read back (re-encrypted in place).
		buf := make([]byte, 10)
		if err := g.Read(0x5000, buf); err != nil {
			return err
		}
		if string(buf) != "before enc" {
			t.Errorf("pre-enc data lost: %q", buf)
		}
		return g.Write(0x6000, []byte("after enc!"))
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if !f.EncryptAll {
		t.Fatal("EnableSME did not mark the configuration")
	}
	// DRAM holds ciphertext for both pages now.
	for _, gfn := range []uint64{5, 6} {
		pfn, _ := d.GPAFrame(gfn)
		raw := make([]byte, 10)
		x.M.Ctl.Mem.ReadRaw(pfn.Addr(), raw)
		if bytes.Equal(raw, []byte("before enc")) || bytes.Equal(raw, []byte("after enc!")) {
			t.Fatalf("gfn %d plaintext in DRAM after EnableSME", gfn)
		}
	}
}

func TestPITEntryRoundTrip(t *testing.T) {
	e := MakePITEntry(xen.UseGuest, 42, 7)
	if !e.Valid() || e.Use() != xen.UseGuest || e.Owner() != 42 || e.ASID() != 7 {
		t.Fatalf("entry fields wrong: %v", e)
	}
	if PITEntry(0).Valid() {
		t.Fatal("zero entry must be invalid")
	}
}

func TestPITStorage(t *testing.T) {
	_, f := newPlatform(t)
	if err := f.PIT.Set(1234, MakePITEntry(xen.UseGuest, 3, 9)); err != nil {
		t.Fatal(err)
	}
	e, err := f.PIT.Get(1234)
	if err != nil {
		t.Fatal(err)
	}
	if e.Owner() != 3 || e.ASID() != 9 {
		t.Fatalf("lookup mismatch: %v", e)
	}
	// Frames in different 1024-groups land in different leaf pages.
	if err := f.PIT.Set(3000, MakePITEntry(xen.UseNPT, 1, 1)); err != nil {
		t.Fatal(err)
	}
	e2, _ := f.PIT.Get(3000)
	if e2.Use() != xen.UseNPT {
		t.Fatal("second group lookup")
	}
	// Unset frames are invalid.
	if e3, _ := f.PIT.Get(2000); e3.Valid() {
		t.Fatal("unset frame should be invalid")
	}
	if err := f.PIT.Clear(1234); err != nil {
		t.Fatal(err)
	}
	if e4, _ := f.PIT.Get(1234); e4.Valid() {
		t.Fatal("cleared entry still valid")
	}
}

func TestGITStorage(t *testing.T) {
	_, f := newPlatform(t)
	e := GITEntry{Initiator: 1, Target: 2, GFNStart: 10, PFNStart: 100, Count: 4, ReadOnly: true}
	if err := f.GIT.Add(e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := f.GIT.Find(func(g GITEntry) bool { return g.Initiator == 1 })
	if err != nil || !ok {
		t.Fatalf("find: %v %v", ok, err)
	}
	if !got.CoversGFN(13) || got.CoversGFN(14) {
		t.Fatal("GFN coverage wrong")
	}
	if !got.ReadOnly {
		t.Fatal("flags lost")
	}
	if err := f.GIT.RemoveFor(2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f.GIT.Find(func(g GITEntry) bool { return g.Initiator == 1 }); ok {
		t.Fatal("RemoveFor left the record")
	}
}
