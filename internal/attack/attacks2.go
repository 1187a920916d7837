package attack

import (
	"bytes"
	"fmt"

	"fidelius/internal/cpu"
	"fidelius/internal/hw"
	"fidelius/internal/isa"
	"fidelius/internal/mmu"
	"fidelius/internal/xen"
)

// hook wraps the platform's interposer for one attack: afterExit runs
// once the exit boundary is crossed, where ordinary hypervisor handler
// code executes, and beforeEntry runs before the entry checks. Either
// may be nil; each gets the VMCB's physical address.
type hook struct {
	xen.Interposer
	afterExit, beforeEntry func(vmcb hw.PhysAddr) error
}

func (h *hook) OnVMExit(d *xen.Domain, pa hw.PhysAddr) error {
	if err := h.Interposer.OnVMExit(d, pa); err != nil || h.afterExit == nil {
		return err
	}
	return h.afterExit(pa)
}

func (h *hook) PreVMRun(d *xen.Domain, pa hw.PhysAddr) error {
	if h.beforeEntry != nil {
		if err := h.beforeEntry(pa); err != nil {
			return err
		}
	}
	return h.Interposer.PreVMRun(d, pa)
}

// interpose installs a hook on p's hypervisor and returns the func that
// puts back the interposer it wrapped.
func interpose(p *Platform, afterExit, beforeEntry func(vmcb hw.PhysAddr) error) (restore func()) {
	prev := p.X.Interpose
	p.X.Interpose = &hook{Interposer: prev, afterExit: afterExit, beforeEntry: beforeEntry}
	return func() { p.X.Interpose = prev }
}

// registerTheft inspects the CPU register file during a VMEXIT, where SEV
// (without -ES) leaves guest registers in plaintext (Section 2.2).
func registerTheft(p *Platform) (bool, string) {
	const marker = 0x5EC12E75EC12E75
	var observed uint64
	defer interpose(p, func(hw.PhysAddr) error {
		observed = p.X.M.CPU.Regs[6]
		return nil
	}, nil)()
	p.X.StartVCPU(p.Victim, func(g *xen.GuestEnv) error {
		g.Regs[6] = marker
		_, err := g.Hypercall(xen.HCVoid)
		return err
	})
	if err := p.X.Run(p.Victim); err != nil {
		return false, err.Error()
	}
	ok := observed == marker
	return ok, fmt.Sprintf("guest register visible at exit: %v", ok)
}

// vmcbTamper rewrites the VMCB's NPT root during exit handling, the
// canonical VMCB integrity attack of Section 2.2.
func vmcbTamper(p *Platform) (bool, string) {
	evilRoot := uint64(p.Conspirator.NPT.Root.Addr())
	defer interpose(p, func(pa hw.PhysAddr) error {
		v, err := cpu.LoadVMCB(p.X.M.Ctl, pa)
		if err != nil {
			return err
		}
		v.NPTRoot = evilRoot
		return cpu.StoreVMCB(p.X.M.Ctl, pa, v)
	}, nil)()
	p.X.StartVCPU(p.Victim, func(g *xen.GuestEnv) error {
		_, err := g.Hypercall(xen.HCVoid)
		return err
	})
	if err := p.X.Run(p.Victim); err != nil {
		return false, fmt.Sprintf("tamper detected: %v", err)
	}
	// Undetected: the forged control field reached VMRUN.
	return true, "forged NPT root accepted at VMRUN"
}

// disableWP executes the MOV CR0 stub to clear write protection, then
// rewrites a page-table entry — "disable SEV protection completely"
// (Sections 2.2 and 6.2).
func disableWP(p *Platform) (bool, string) {
	c := p.X.M.CPU
	savedCR0 := c.CR0
	execErr := p.X.M.ExecStub(p.X.M.Stubs.MovCR0, savedCR0&^cpu.CR0WP)
	defer func() {
		c.TrustedContext = true
		c.CR0 = savedCR0
		c.TrustedContext = false
	}()
	if execErr != nil {
		return false, fmt.Sprintf("WP clear rejected: %v", execErr)
	}
	// With WP off, rewrite the victim's NPT to point its secret page at
	// a hypervisor-controlled frame.
	slot, err := p.X.NPTLeafSlot(p.Victim, p.SecretGFN<<hw.PageShift)
	if err != nil {
		return false, err.Error()
	}
	if werr := c.Write64(uint64(slot), uint64(mmu.MakePTE(1, mmu.FlagP|mmu.FlagW))); werr != nil {
		return false, fmt.Sprintf("NPT write still blocked: %v", werr)
	}
	return true, "WP cleared and protected structure rewritten"
}

// cr3Pivot switches to an attacker-built page table that maps everything
// writable, bypassing all page-level protection (Table 2's MOV CR3 row).
func cr3Pivot(p *Platform) (bool, string) {
	c := p.X.M.CPU
	// Build the evil identity table in free frames (plain data pages —
	// writable in any configuration).
	evil, err := buildEvilSpace(p.X)
	if err != nil {
		return false, err.Error()
	}
	savedCR3 := c.CR3
	defer func() {
		c.TrustedContext = true
		c.CR3 = savedCR3
		c.TLB.FlushAll()
		c.TrustedContext = false
	}()
	if execErr := p.X.M.ExecStub(p.X.M.Stubs.MovCR3, uint64(evil.Root.Addr())); execErr != nil {
		return false, fmt.Sprintf("CR3 pivot rejected: %v", execErr)
	}
	pivoted := c.CR3 == uint64(evil.Root.Addr())
	return pivoted, fmt.Sprintf("running on attacker page table: %v", pivoted)
}

// buildEvilSpace constructs an identity map with everything writable and
// executable, the attacker's dream address space.
func buildEvilSpace(x *xen.Xen) (*mmu.Space, error) {
	root, err := x.M.Alloc.Alloc(xen.UseXenData, 0)
	if err != nil {
		return nil, err
	}
	var zero [hw.PageSize]byte
	if err := x.M.Ctl.Mem.WriteRaw(root.Addr(), zero[:]); err != nil {
		return nil, err
	}
	x.M.Ctl.Cache.Invalidate(root.Addr(), hw.PageSize)
	sp := &mmu.Space{Ctl: x.M.Ctl, Root: root}
	ad := evilAlloc{x}
	for pfn := hw.PFN(0); pfn < hw.PFN(x.M.Alloc.Total()); pfn++ {
		if err := sp.Map(ad, uint64(pfn.Addr()), mmu.MakePTE(pfn, mmu.FlagP|mmu.FlagW)); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

type evilAlloc struct{ x *xen.Xen }

func (e evilAlloc) AllocFrame() (hw.PFN, error) {
	return e.x.M.Alloc.Alloc(xen.UseXenData, 0)
}

// hiddenGadget plants a VMRUN instruction in a writable data page and
// jumps to it, first clearing EFER.NXE to defeat DEP (Section 4.1.2's
// unaligned/unsanctioned instruction threat).
func hiddenGadget(p *Platform) (bool, string) {
	c := p.X.M.CPU
	frame, err := p.X.M.Alloc.Alloc(xen.UseXenData, 0)
	if err != nil {
		return false, err.Error()
	}
	gadget := isa.Inst{Op: isa.OpVmrun, Reg: 0}.Encode(nil)
	gadget = isa.Inst{Op: isa.OpHlt}.Encode(gadget)
	if err := c.WriteVA(uint64(frame.Addr()), gadget); err != nil {
		return false, err.Error()
	}
	savedEFER := c.EFER
	defer func() {
		c.TrustedContext = true
		c.EFER = savedEFER
		c.TrustedContext = false
	}()
	// Step 1: clear NXE so the data page becomes executable.
	c.Regs[0] = cpu.MSREFER
	c.Regs[1] = savedEFER &^ cpu.EFERNXE
	if err := c.Run(p.X.M.Stubs.Wrmsr, 4); err != nil {
		return false, fmt.Sprintf("NXE clear rejected: %v", err)
	}
	// Step 2: execute the gadget with the victim's VMCB.
	c.TLB.FlushAll()
	c.Regs[0] = uint64(p.Victim.VMCBPA())
	if execErr := c.Run(uint64(frame.Addr()), 8); execErr != nil {
		if _, isPF := execErr.(*mmu.PageFault); isPF {
			return false, fmt.Sprintf("gadget blocked: %v", execErr)
		}
	}
	// Reaching the world switch (even if it then errors) means the
	// unsanctioned VMRUN executed.
	return true, "unsanctioned VMRUN executed from a data page"
}

// iagoCPUID forges the CPUID result the hypervisor returns to the guest
// (Section 6.2, "Other issues").
func iagoCPUID(p *Platform) (bool, string) {
	var lastCPUID bool
	defer interpose(p, func(pa hw.PhysAddr) error {
		v, err := cpu.LoadVMCB(p.X.M.Ctl, pa)
		if err != nil {
			return err
		}
		lastCPUID = v.ExitCode == cpu.ExitCPUID
		return nil
	}, func(pa hw.PhysAddr) error {
		if !lastCPUID {
			return nil
		}
		v, err := cpu.LoadVMCB(p.X.M.Ctl, pa)
		if err != nil {
			return err
		}
		v.Regs[0] = 0xBADC0DE
		return cpu.StoreVMCB(p.X.M.Ctl, pa, v)
	})()
	var got [4]uint64
	p.X.StartVCPU(p.Victim, func(g *xen.GuestEnv) error {
		got = g.CPUID(0)
		return nil
	})
	if err := p.X.Run(p.Victim); err != nil {
		return false, fmt.Sprintf("forgery detected: %v", err)
	}
	forged := got[0] == 0xBADC0DE
	return forged, fmt.Sprintf("guest received forged CPUID: %v", forged)
}

// ioDataTheft is the curious driver domain: it records everything moving
// through the PV block path and inspects the physical disk (Section 6.2,
// "I/O data stealing and tampering").
func ioDataTheft(p *Platform) (bool, string) {
	inRing := bytes.Contains(p.Backend.Snoop, p.Secret[:16])
	onDisk := bytes.Contains(p.Disk.Snapshot(), p.Secret[:16])
	return inRing || onDisk, fmt.Sprintf("secret visible in ring: %v, on disk: %v", inRing, onDisk)
}

// codePatch makes a hypervisor code page writable by editing the host
// page table, then patches it (the write-forbidding policy of §5.3).
func codePatch(p *Platform) (bool, string) {
	c := p.X.M.CPU
	codeVA := p.X.M.Stubs.Base
	slot, err := p.X.M.HostPT.LeafSlot(codeVA)
	if err != nil {
		return false, err.Error()
	}
	writable := mmu.MakePTE(hw.PhysAddr(codeVA).Frame(), mmu.FlagP|mmu.FlagW)
	if werr := c.Write64(uint64(slot), uint64(writable)); werr != nil {
		return false, fmt.Sprintf("PTE rewrite blocked: %v", werr)
	}
	c.TLB.FlushAll()
	if werr := c.WriteVA(codeVA, []byte{byte(isa.OpNop)}); werr != nil {
		return false, fmt.Sprintf("code write blocked: %v", werr)
	}
	return true, "hypervisor code page patched"
}

// rowhammer flips a bit in the victim's DRAM. With memory encryption the
// flip avalanches through the 16-byte block, denying the attacker
// controlled corruption (Section 6.2, "Violating memory integrity").
func rowhammer(p *Platform) (bool, string) {
	target := p.VictimFrame().Addr()
	if err := p.X.M.Ctl.Mem.FlipBit(target+3, 1); err != nil {
		return false, err.Error()
	}
	p.X.M.Ctl.Cache.Flush()
	got := make([]byte, len(p.Secret))
	var readErr error
	p.X.StartVCPU(p.Victim, func(g *xen.GuestEnv) error {
		readErr = g.Read(p.SecretGFN<<hw.PageShift, got)
		return nil
	})
	if err := p.X.Run(p.Victim); err != nil {
		return false, err.Error()
	}
	if readErr != nil {
		return false, readErr.Error()
	}
	// Controlled corruption = exactly the targeted bit changed.
	diff := 0
	for i := range got {
		if got[i] != p.Secret[i] {
			diff++
		}
	}
	controlled := diff == 1 && got[3]^p.Secret[3] == 1<<1
	return controlled, fmt.Sprintf("%d bytes corrupted (controlled: %v)", diff, controlled)
}
