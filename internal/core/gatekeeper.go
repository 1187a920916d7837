package core

import (
	"fmt"

	"fidelius/internal/cycles"
	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/lockrank"
	"fidelius/internal/mmu"
	"fidelius/internal/telemetry"
	"fidelius/internal/xen"
)

// Gatekeeper is Fidelius's implementation of the hypervisor's
// resource-management seam: every critical-resource update the hypervisor
// wants to make arrives here, passes through a gate, and is checked
// against the PIT and GIT policies before (or instead of) being applied.
//
// Locking: the trusted context's own state (PIT, GIT, shadows, write-once
// vectors, VM records) and the shared-machine resources the gates operate
// on (the boot CPU's register file, the host page table, the grant bytes)
// are all guarded by the machine's gate lock. Every exported method below
// takes it at its top — except VMRun, whose caller (the hypervisor's
// vmrun stub) already holds it — so concurrent quanta of different
// domains serialize here and only here.
type Gatekeeper struct {
	F *Fidelius
}

var _ xen.Interposer = (*Gatekeeper)(nil)

// Name implements xen.Interposer.
func (gk *Gatekeeper) Name() string { return gk.F.Name() }

// OnVMExit implements xen.Interposer: shadow and mask.
func (gk *Gatekeeper) OnVMExit(d *xen.Domain, vmcbPA hw.PhysAddr) error {
	gk.F.M.Host.Lock()
	defer gk.F.M.Host.Unlock()
	return gk.F.onVMExit(d, vmcbPA)
}

// PreVMRun implements xen.Interposer: verify and restore.
func (gk *Gatekeeper) PreVMRun(d *xen.Domain, vmcbPA hw.PhysAddr) error {
	gk.F.M.Host.Lock()
	defer gk.F.M.Host.Unlock()
	return gk.F.preVMRun(d, vmcbPA)
}

// VMRun implements xen.Interposer: the type 3 gate around the unmapped
// VMRUN stub. The sanity check between remap and execution validates that
// the VMCB address names a real VMCB page. The hypervisor invokes it with
// the gate lock already held (the stub runs on the shared boot CPU), so
// unlike the other methods it asserts rather than acquires.
func (gk *Gatekeeper) VMRun(vmcbPA hw.PhysAddr) error {
	f := gk.F
	lockrank.AssertHeld(lockrank.RankGate)
	e, err := f.PIT.Get(vmcbPA.Frame())
	if err != nil {
		return err
	}
	if !e.Valid() {
		// Lazily adopt VMCB pages of domains created after Enable: the
		// address must match a real domain's VMCB exactly.
		if d, ok := f.X.DomByVMCB(vmcbPA); ok && vmcbPA == d.VMCBPA() {
			if err := f.PIT.Set(vmcbPA.Frame(), MakePITEntry(xen.UseVMCB, d.ID, d.ASID)); err != nil {
				return err
			}
			e, _ = f.PIT.Get(vmcbPA.Frame())
		}
	}
	if !e.Valid() || e.Use() != xen.UseVMCB {
		return f.violation("vmrun", fmt.Sprintf("vmcb address %#x is not a VMCB page", uint64(vmcbPA)))
	}
	return f.gate3(f.M.Stubs.VmrunPg, f.savedVmrunPTE, func() error {
		return f.M.ExecStub(f.M.Stubs.Vmrun, uint64(vmcbPA))
	})
}

// NewPTPage implements xen.Interposer: tag the new table page in the PIT
// and write-protect it before it can carry any mapping.
func (gk *Gatekeeper) NewPTPage(d *xen.Domain, pfn hw.PFN) error {
	f := gk.F
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	owner := xen.Dom0
	use := xen.UseXenPageTable
	var asid hw.ASID
	if d != nil {
		owner, use, asid = d.ID, xen.UseNPT, d.ASID
	}
	if err := f.PIT.Set(pfn, MakePITEntry(use, owner, asid)); err != nil {
		return err
	}
	return f.trusted(func() error { return f.protectRO(pfn) })
}

// WritePTE implements xen.Interposer: the type 1 gate with PIT-based
// policy enforcement (Section 5.2).
func (gk *Gatekeeper) WritePTE(d *xen.Domain, slot hw.PhysAddr, val mmu.PTE) error {
	f := gk.F
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	return f.gate1(func() error {
		if err := f.checkPTEWrite(d, slot, val); err != nil {
			return err
		}
		return f.M.CPU.Write64(uint64(slot), uint64(val))
	})
}

// checkPTEWrite is the PIT policy: the slot must live in a tracked table
// page of the right kind, and the new mapping must not hand the
// hypervisor (or another guest) a protected page.
func (f *Fidelius) checkPTEWrite(d *xen.Domain, slot hw.PhysAddr, val mmu.PTE) error {
	slotEntry, err := f.PIT.Get(slot.Frame())
	if err != nil {
		return err
	}
	if !slotEntry.Valid() {
		return f.violation("pit", fmt.Sprintf("PTE write into untracked page %#x", uint64(slot.Frame())))
	}
	switch slotEntry.Use() {
	case xen.UseNPT:
		return f.checkNPTWrite(d, slotEntry, slot, val)
	case xen.UseXenPageTable:
		return f.checkHostPTWrite(slot, val)
	default:
		return f.violation("pit", fmt.Sprintf("PTE write into %v page %#x", slotEntry.Use(), uint64(slot.Frame())))
	}
}

func (f *Fidelius) checkNPTWrite(d *xen.Domain, slotEntry PITEntry, slot hw.PhysAddr, val mmu.PTE) error {
	if d == nil || slotEntry.Owner() != d.ID {
		return f.violation("pit", "NPT update attributed to the wrong domain")
	}
	cur, err := f.readPTE(slot)
	if err != nil {
		return err
	}
	if !val.Present() {
		return nil // unmapping only removes privilege
	}
	target := val.PFN()
	te, err := f.PIT.Get(target)
	if err != nil {
		return err
	}
	switch {
	case !te.Valid() || te.Use() == xen.UseFree:
		// A fresh frame becomes guest memory: claim it for the guest
		// and unmap it from the hypervisor (Section 4.3.4).
		if err := f.PIT.Set(target, MakePITEntry(xen.UseGuest, d.ID, d.ASID)); err != nil {
			return err
		}
		if err := f.trusted(func() error { return f.unmapFromHypervisor(target) }); err != nil {
			return err
		}
	case te.Use() == xen.UseGuest && te.Owner() == d.ID:
		// Remapping the guest's own page: permission updates are fine,
		// but pointing an established GPA at a *different* frame is the
		// replay attack of Section 2.2.
		if cur.Present() && cur.PFN() != target {
			return f.violation("pit", fmt.Sprintf("NPT remap of gpa slot %#x (replay attack)", uint64(slot)))
		}
	case te.Use() == xen.UseNPT && te.Owner() == d.ID:
		// Linking an intermediate table page of the same domain.
	case te.Use() == xen.UseShared:
		ge, ok, err := f.GIT.Find(func(e GITEntry) bool {
			return e.Target == d.ID && f.gitCoversPFN(e, target)
		})
		if err != nil {
			return err
		}
		if !ok {
			return f.violation("git", fmt.Sprintf("mapping shared frame %#x without a GIT record", uint64(target)))
		}
		if ge.ReadOnly && val.Writable() {
			return f.violation("git", "grant mapping escalated to writable against GIT record")
		}
	default:
		return f.violation("pit", fmt.Sprintf("NPT maps foreign %v page %#x (owner %d)", te.Use(), uint64(target), te.Owner()))
	}
	// Replay guard also applies when the old mapping pointed at guest
	// memory and the new one differs.
	if cur.Present() && val.Present() && cur.PFN() != val.PFN() {
		ce, err := f.PIT.Get(cur.PFN())
		if err != nil {
			return err
		}
		if ce.Valid() && ce.Use() == xen.UseGuest && ce.Owner() == d.ID {
			return f.violation("pit", fmt.Sprintf("NPT remap of gpa slot %#x (replay attack)", uint64(slot)))
		}
	}
	return nil
}

func (f *Fidelius) checkHostPTWrite(slot hw.PhysAddr, val mmu.PTE) error {
	if !val.Present() {
		return nil
	}
	te, err := f.PIT.Get(val.PFN())
	if err != nil {
		return err
	}
	switch te.Use() {
	case xen.UseGuest:
		return f.violation("pit", fmt.Sprintf("hypervisor maps protected guest page %#x", uint64(val.PFN())))
	case xen.UseFidelius:
		return f.violation("pit", "hypervisor maps Fidelius-private page")
	case xen.UseNPT, xen.UseXenPageTable, xen.UseGrantTable:
		if val.Writable() {
			return f.violation("pit", fmt.Sprintf("writable alias of protected %v page %#x", te.Use(), uint64(val.PFN())))
		}
	case xen.UseXenCode:
		if val.Writable() {
			return f.violation("write-forbidding", "writable alias of hypervisor code page")
		}
	}
	return nil
}

func (f *Fidelius) readPTE(slot hw.PhysAddr) (mmu.PTE, error) {
	var b [8]byte
	if err := f.M.Ctl.Read(hw.Access{PA: slot}, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return mmu.PTE(v), nil
}

// WriteGrant implements xen.Interposer: the type 1 gate with GIT-based
// policy enforcement (Section 5.2).
func (gk *Gatekeeper) WriteGrant(d *xen.Domain, slot hw.PhysAddr, entry xen.GrantEntry) error {
	f := gk.F
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	return f.gate1(func() error {
		if err := f.checkGrantWrite(d, slot, entry); err != nil {
			return err
		}
		var buf [xen.GrantEntrySize]byte
		entry.Marshal(buf[:])
		return f.M.CPU.WriteVA(uint64(slot), buf[:])
	})
}

func (f *Fidelius) checkGrantWrite(d *xen.Domain, slot hw.PhysAddr, entry xen.GrantEntry) error {
	if d == nil {
		return f.violation("git", "grant update without a domain")
	}
	// Lazily adopt the domain's grant-table page into the PIT (domains
	// created after Enable).
	se, err := f.PIT.Get(slot.Frame())
	if err != nil {
		return err
	}
	if !se.Valid() && slot.Frame() == d.Grant.PagePFN {
		if err := f.PIT.Set(slot.Frame(), MakePITEntry(xen.UseGrantTable, d.ID, 0)); err != nil {
			return err
		}
		if err := f.trusted(func() error { return f.protectRO(slot.Frame()) }); err != nil {
			return err
		}
		se, _ = f.PIT.Get(slot.Frame())
	}
	if !se.Valid() || se.Use() != xen.UseGrantTable || se.Owner() != d.ID {
		return f.violation("git", fmt.Sprintf("grant write into %v page of domain %d", se.Use(), se.Owner()))
	}
	if entry.Flags&xen.GrantInUse == 0 {
		return nil // revocation only removes privilege
	}
	ge, ok, err := f.GIT.Find(func(e GITEntry) bool {
		return e.Initiator == d.ID && e.Target == entry.Grantee && e.CoversGFN(entry.GFN)
	})
	if err != nil {
		return err
	}
	if !ok {
		return f.violation("git", fmt.Sprintf("grant of gfn %d to dom %d not declared via pre_sharing_op", entry.GFN, entry.Grantee))
	}
	if ge.ReadOnly && entry.Flags&xen.GrantReadOnly == 0 {
		return f.violation("git", "grant permissions escalated beyond GIT record (read-only declared)")
	}
	// The granted frame becomes shared: retag and restore hypervisor
	// visibility (shared pages are plaintext and legitimately reachable
	// by the driver domain).
	pfn, okf := d.GPAFrame(entry.GFN)
	if !okf {
		return f.violation("git", "grant of unbacked gfn")
	}
	if err := f.PIT.Set(pfn, MakePITEntry(xen.UseShared, d.ID, d.ASID)); err != nil {
		return err
	}
	return f.trusted(func() error { return f.remapToHypervisor(pfn) })
}

// gitCoversPFN reports whether a GIT record's declared GFN range, resolved
// through the initiator's current guest-physical map, covers a host frame.
// Resolution happens at check time: frames need not be physically
// contiguous, and remappings cannot stale the record.
func (f *Fidelius) gitCoversPFN(e GITEntry, pfn hw.PFN) bool {
	d, ok := f.X.Dom(e.Initiator)
	if !ok {
		return false
	}
	for i := uint64(0); i < e.Count; i++ {
		if p, okf := d.GPAFrame(e.GFNStart + i); okf && p == pfn {
			return true
		}
	}
	return false
}

// PreSharing implements xen.Interposer: record the initiator's sharing
// declaration in the GIT (Section 4.3.7). Handled entirely inside the
// trusted context — the hypervisor never touches the GIT.
func (gk *Gatekeeper) PreSharing(initiator, target xen.DomID, gfn, count, flags uint64) error {
	f := gk.F
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	d, ok := f.X.Dom(initiator)
	if !ok {
		return f.violation("git", "pre_sharing_op from unknown domain")
	}
	if count == 0 || gfn+count > uint64(d.MemPages) {
		return f.violation("git", "pre_sharing_op range outside the initiator's memory")
	}
	pfn, okf := d.GPAFrame(gfn)
	if !okf {
		return f.violation("git", "pre_sharing_op on unbacked gfn")
	}
	for i := uint64(1); i < count; i++ {
		if _, okn := d.GPAFrame(gfn + i); !okn {
			return f.violation("git", "pre_sharing_op range not fully backed")
		}
	}
	return f.GIT.Add(GITEntry{
		Initiator: initiator,
		Target:    target,
		ReadOnly:  flags&uint64(xen.GrantReadOnly) != 0,
		GFNStart:  gfn,
		PFNStart:  pfn,
		Count:     count,
	})
}

// EnableSME implements xen.Interposer: set the C-bit on every NPT leaf of
// the domain's private pages, so that its memory is encrypted with the
// host SME key — the Section 7.1 methodology behind "Fidelius-enc".
func (gk *Gatekeeper) EnableSME(d *xen.Domain) error {
	f := gk.F
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	f.EncryptAll = true
	for gfn := uint64(0); gfn < uint64(d.MemPages); gfn++ {
		pfn, ok := d.GPAFrame(gfn)
		if !ok {
			continue
		}
		e, err := f.PIT.Get(pfn)
		if err != nil {
			return err
		}
		if e.Valid() && e.Use() == xen.UseShared {
			continue // shared pages stay plaintext
		}
		slot, err := f.X.NPTLeafSlot(d, gfn<<hw.PageShift)
		if err != nil {
			return err
		}
		leaf, err := f.readPTE(slot)
		if err != nil {
			return err
		}
		if !leaf.Present() {
			continue
		}
		if err := f.gate1(func() error {
			return f.M.CPU.Write64(uint64(slot), uint64(leaf.WithFlags(mmu.FlagC)))
		}); err != nil {
			return err
		}
		d.NPTGen++
		// The frame's existing plaintext becomes unreadable unless
		// re-encrypted; mimic the paper's "free pages" semantics by
		// re-encrypting current contents under the host key so the
		// guest sees its data unchanged.
		if err := f.trusted(func() error { return f.encryptFrameInPlace(pfn) }); err != nil {
			return err
		}
	}
	return nil
}

// encryptFrameInPlace converts a plaintext frame to SME ciphertext.
func (f *Fidelius) encryptFrameInPlace(pfn hw.PFN) error {
	var page [hw.PageSize]byte
	if err := f.M.Ctl.Mem.ReadRaw(pfn.Addr(), page[:]); err != nil {
		return err
	}
	f.M.Ctl.Cache.Invalidate(pfn.Addr(), hw.PageSize)
	return f.M.Ctl.Write(hw.Access{PA: pfn.Addr(), Encrypted: true, ASID: hw.HostASID}, page[:])
}

// IOCrypt implements xen.Interposer: the retrofitted event channel of the
// SEV-based I/O path (Section 4.3.5). For writes, SEND_IO (or ENC under a
// GEK) re-encrypts sectors from the guest's dedicated buffer Md (Kvek)
// into the shared area; for reads, RECEIVE_IO (or DEC) goes the other way.
func (gk *Gatekeeper) IOCrypt(d *xen.Domain, write bool, mdGFN, lba, count, sharedIdx uint64) error {
	f := gk.F
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	st := f.vms[d.ID]
	if st == nil || (!st.IOSessionReady && !st.GEKReady) {
		return f.violation("io", "SEV I/O session not established for this domain")
	}
	mdPFN, ok := d.GPAFrame(mdGFN)
	if !ok {
		return f.violation("io", "Md buffer unbacked")
	}
	me, err := f.PIT.Get(mdPFN)
	if err != nil {
		return err
	}
	if !me.Valid() || me.Use() != xen.UseGuest || me.Owner() != d.ID {
		return f.violation("io", "Md buffer is not the guest's own memory")
	}
	if count == 0 || count > uint64(hw.PageSize/disk.SectorSize) {
		return f.violation("io", "sector count exceeds the Md buffer")
	}
	if h := f.hub(); h.Tracing() {
		dir := "read"
		if write {
			dir = "write"
		}
		h.EmitDetail(telemetry.KindIOCrypt, uint32(d.ID), uint32(d.ASID),
			cycles.SEVCommand, lba, count, dir)
	}
	// The command pair and its contexts are fixed for the whole request:
	// ENC/DEC on the guest's own context under the Section 8 extension,
	// otherwise SEND_IO/RECEIVE_IO on the s-dom and r-dom helpers.
	send, recv, sh, rh := f.M.FW.SendIO, f.M.FW.ReceiveIO, st.SDom, st.RDom
	if st.GEKReady {
		send, recv, sh, rh = f.M.FW.Enc, f.M.FW.Dec, st.Handle, st.Handle
	}
	f.M.Ctl.Cycles.Charge(cycles.SEVCommand)
	defer f.enterTrusted()()
	// One sector buffer carries every sector of the request: SEND_IO/ENC
	// seal into it, RECEIVE_IO/DEC open it in place.
	ct := make([]byte, disk.SectorSize)
	for s := uint64(0); s < count; s++ {
		mdPA := mdPFN.Addr() + hw.PhysAddr(s*disk.SectorSize)
		sharedPA, err := f.sharedSectorPA(d, sharedIdx+s)
		if err != nil {
			return err
		}
		if write {
			if err := send(sh, mdPA, ct, lba+s); err != nil {
				return err
			}
			if err := f.M.Ctl.Write(hw.Access{PA: sharedPA}, ct); err != nil {
				return err
			}
			continue
		}
		if err := f.M.Ctl.Read(hw.Access{PA: sharedPA}, ct); err != nil {
			return err
		}
		if err := recv(rh, mdPA, ct, lba+s); err != nil {
			return err
		}
	}
	return nil
}

// sharedSectorPA locates a sector of the domain's shared I/O data area.
func (f *Fidelius) sharedSectorPA(d *xen.Domain, sectorIdx uint64) (hw.PhysAddr, error) {
	page := sectorIdx / xen.SectorsPerPage
	if page >= d.Info.DataLen {
		return 0, f.violation("io", "shared sector index beyond the data area")
	}
	pfn, ok := d.GPAFrame(d.Info.DataGFN + page)
	if !ok {
		return 0, f.violation("io", "shared data page unbacked")
	}
	return pfn.Addr() + hw.PhysAddr(sectorIdx%xen.SectorsPerPage)*disk.SectorSize, nil
}

// RegisterWriteOnce implements xen.Interposer: place the page under the
// write-once policy (Section 5.3).
func (gk *Gatekeeper) RegisterWriteOnce(pfn hw.PFN) error {
	f := gk.F
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	f.writeOnce[pfn] = &onceVec{}
	if err := f.PIT.Set(pfn, MakePITEntry(xen.UseXenData, xen.Dom0, 0)); err != nil {
		return err
	}
	return f.trusted(func() error { return f.protectRO(pfn) })
}

// DomainDestroyed implements xen.Interposer: scrub PIT and GIT state and
// restore hypervisor mappings for reclaimed frames (Section 4.3.8).
func (gk *Gatekeeper) DomainDestroyed(d *xen.Domain) error {
	f := gk.F
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	integ := f.M.Ctl.Integ
	for _, pfn := range d.Frames {
		if pfn == 0 {
			continue
		}
		// A frame leaves the Section 8 integrity engine with its VM.
		if integ != nil {
			integ.Unprotect(pfn)
		}
		if err := f.PIT.Clear(pfn); err != nil {
			return err
		}
		if err := f.trusted(func() error { return f.remapToHypervisor(pfn) }); err != nil {
			return err
		}
	}
	for _, pfn := range d.NPTPages {
		if err := f.PIT.Clear(pfn); err != nil {
			return err
		}
		if err := f.trusted(func() error { return f.unprotect(pfn) }); err != nil {
			return err
		}
	}
	// A domain whose build failed part way may have no grant table or
	// VMCB page yet.
	if g := d.Grant; g != nil {
		if err := f.PIT.Clear(g.PagePFN); err != nil {
			return err
		}
		if err := f.trusted(func() error { return f.unprotect(g.PagePFN) }); err != nil {
			return err
		}
	}
	// The VMCB page returns to the pool too (it was adopted into the PIT
	// at the domain's first VMRUN).
	if d.VMCBPFN != 0 {
		if err := f.PIT.Clear(d.VMCBPFN); err != nil {
			return err
		}
	}
	// The start-info page leaves the write-once policy with its frame:
	// teardown returns it to the allocator, and a fresh owner must not
	// inherit a spent write budget or a read-only host mapping.
	if si := d.StartInfoPFN; si != 0 {
		if _, ok := f.writeOnce[si]; ok {
			delete(f.writeOnce, si)
			if err := f.PIT.Clear(si); err != nil {
				return err
			}
			if err := f.trusted(func() error { return f.unprotect(si) }); err != nil {
				return err
			}
		}
	}
	if err := f.GIT.RemoveFor(d.ID); err != nil {
		return err
	}
	delete(f.shadows, d.ID)
	delete(f.vms, d.ID)
	return nil
}
