package core

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"fidelius/internal/cpu"
	"fidelius/internal/cycles"
	"fidelius/internal/hw"
	"fidelius/internal/isa"
	"fidelius/internal/lockrank"
	"fidelius/internal/mmu"
	"fidelius/internal/sev"
	"fidelius/internal/telemetry"
	"fidelius/internal/xen"
)

// Violation is one rejected operation, recorded for auditing (the paper
// logs write-forbidding hits for "further auditing", Section 5.3).
type Violation struct {
	Kind   string
	Detail string
}

// VMState is Fidelius's private record of one protected VM: the SEV
// metadata the hypervisor is no longer allowed to touch (Section 4.2.3).
type VMState struct {
	Dom    *xen.Domain
	Handle sev.Handle
	// SDom and RDom are the I/O helper contexts (Section 4.3.5).
	SDom, RDom     sev.Handle
	IOSessionReady bool
	// GEKReady marks a VM booted through the Section 8 customized-key
	// extension: its own context serves ENC/DEC on the I/O path, with no
	// helper contexts.
	GEKReady bool
}

type onceVec struct {
	// used is the bit-vector of Section 5.3 (one bit per byte of the
	// page); a write to any already-written byte is rejected.
	used [hw.PageSize / 8]byte
}

func (o *onceVec) markRange(off, n int) (fresh bool) {
	fresh = true
	for i := off; i < off+n && i < hw.PageSize; i++ {
		if o.used[i/8]&(1<<(i%8)) != 0 {
			fresh = false
		}
		o.used[i/8] |= 1 << (i % 8)
	}
	return fresh
}

func (o *onceVec) anyUsed() bool {
	for _, b := range o.used {
		if b != 0 {
			return true
		}
	}
	return false
}

// Fidelius is the trusted context. Its state (PIT, GIT, shadows, SEV
// metadata) is conceptually unmapped from the hypervisor; its entry points
// are the three gates and the CPU policy hooks.
type Fidelius struct {
	X *xen.Xen
	M *xen.Machine

	PIT *PIT
	GIT *GIT

	// HypervisorMeasurement is the boot-time measurement of the
	// hypervisor's code region (Section 4.3.1), used in attestation.
	HypervisorMeasurement [32]byte

	// EncryptAll marks the "Fidelius-enc" configuration: EnableSME sets
	// NPT C-bits so guest memory is SME-encrypted (Section 7.1).
	EncryptAll bool

	// vmu (lock rank: leaf) guards Violations. It is a leaf because
	// violations are recorded from gate contexts at any point in the lock
	// order — policy hooks, page-fault mediation, VMCB verification — and
	// the record itself acquires nothing further. Concurrent readers use
	// ViolationLog; serial tests may read Violations directly.
	vmu        lockrank.Mutex
	Violations []Violation

	// slabMu (lock rank: leaf) guards slabs, the free list of SEND_UPDATE
	// slabs that live migrations from this platform take and return
	// (live.go). Concurrent migrations each hold their own slab.
	slabMu lockrank.Mutex
	slabs  []*sendSlab

	// shadows and vms are trusted-context state, guarded by the machine's
	// gate lock like the rest of Fidelius's private structures. The
	// lifecycle entry points (which run without the gate lock held) go
	// through lookupVM/storeVM.
	shadows map[xen.DomID]*shadowState
	vms     map[xen.DomID]*VMState

	writeOnce map[hw.PFN]*onceVec
	// pendingReprotect lists write-once pages temporarily writable for a
	// mediated write, re-armed by the post-fault hook.
	pendingReprotect []hw.PFN

	execCount map[uint64]int // stub address -> executions (execute-once)

	// savedVmrunPTE and savedMovCR3PTE restore the unmapped stub pages
	// through the type 3 gate.
	savedVmrunPTE  mmu.PTE
	savedMovCR3PTE mmu.PTE

	// port is a detached controller port (its cycles reach no clock) and
	// hostPT the host page table seen through it. The gate and shadow
	// mechanics run on them, because their modelled constants (Section
	// 7.2) already cover what those mechanics do. Both are shared root
	// state: use them only under the gate lock.
	port   *hw.Controller
	hostPT *mmu.Space
}

// ErrNotMonopolised reports that binary scanning found unsanctioned
// privileged instructions in the hypervisor code region.
var ErrNotMonopolised = errors.New("core: privileged instructions not monopolised")

// Enable late-launches Fidelius on a booted hypervisor (Section 4.3.1):
// it measures the hypervisor's code, verifies privileged-instruction
// monopolisation, builds the PIT and GIT, write-protects the hypervisor's
// page tables and every existing critical structure, unmaps the VMRUN and
// MOV CR3 stub pages, installs the policy hooks, and takes over the
// resource-management seam.
func Enable(x *xen.Xen) (*Fidelius, error) {
	f := &Fidelius{
		X:         x,
		M:         x.M,
		shadows:   make(map[xen.DomID]*shadowState),
		vms:       make(map[xen.DomID]*VMState),
		writeOnce: make(map[hw.PFN]*onceVec),
		execCount: make(map[uint64]int),
		port:      x.M.Ctl.Detached(),
	}
	hostPT := *x.M.HostPT
	hostPT.Ctl = f.port
	f.hostPT = &hostPT
	f.vmu.Init(lockrank.RankLeaf, nil)
	f.slabMu.Init(lockrank.RankLeaf, nil)

	// 1. Measure the hypervisor code and verify monopolisation.
	code, err := x.M.CodeRegion()
	if err != nil {
		return nil, err
	}
	f.HypervisorMeasurement = sha256.Sum256(code)
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
		return nil, ErrNotMonopolised
	}

	// 2. PIT and GIT.
	if f.PIT, err = NewPIT(x.M.Ctl, x.M.Alloc); err != nil {
		return nil, err
	}
	if f.GIT, err = NewGIT(x.M.Ctl, x.M.Alloc); err != nil {
		return nil, err
	}
	type frameRec struct {
		pfn hw.PFN
		fi  xen.FrameInfo
	}
	var inUse []frameRec
	x.M.Alloc.ForEach(func(pfn hw.PFN, fi xen.FrameInfo) {
		if fi.Use != xen.UseFree {
			inUse = append(inUse, frameRec{pfn, fi})
		}
	})
	for _, r := range inUse {
		if err := f.PIT.Set(r.pfn, MakePITEntry(r.fi.Use, r.fi.Owner, 0)); err != nil {
			return nil, err
		}
	}

	// 3. Write-protect the hypervisor's page-table-pages, the PIT and
	// GIT pages, and the structures of any pre-existing domains.
	hostPTPages, err := x.M.HostPT.TablePages()
	if err != nil {
		return nil, err
	}
	var toProtect []hw.PFN
	toProtect = append(toProtect, hostPTPages...)
	toProtect = append(toProtect, f.PIT.Pages...)
	toProtect = append(toProtect, f.GIT.PagePFN)
	for _, d := range x.Doms {
		toProtect = append(toProtect, d.NPTPages...)
		toProtect = append(toProtect, d.Grant.PagePFN)
	}
	for _, pfn := range toProtect {
		if err := f.protectRO(pfn); err != nil {
			return nil, err
		}
	}

	// 4. Unmap the VMRUN and MOV CR3 stub pages (type 3 gate targets).
	if f.savedVmrunPTE, err = f.unmapStub(x.M.Stubs.VmrunPg); err != nil {
		return nil, err
	}
	if f.savedMovCR3PTE, err = f.unmapStub(x.M.Stubs.MovCR3Pg); err != nil {
		return nil, err
	}
	x.M.TLBs.FlushAll()

	// 5. The SEV metadata becomes self-maintained: firmware commands now
	// require Fidelius's trusted context (Section 4.2.3).
	x.M.FW.Authorize = func() bool { return x.M.CPU.TrustedContext }

	// 6. Policy hooks and the resource-management seam.
	f.installHooks()
	x.Interpose = &Gatekeeper{F: f}
	return f, nil
}

// hub returns the machine's telemetry hub (always present: the memory
// controller creates it).
func (f *Fidelius) hub() *telemetry.Hub { return f.M.Ctl.Telem }

// Name reports the configuration label.
func (f *Fidelius) Name() string {
	if f.EncryptAll {
		return "fidelius-enc"
	}
	return "fidelius"
}

// enterTrusted raises the trusted-context flag for the duration of a
// Fidelius entry point; the returned function restores the previous state.
func (f *Fidelius) enterTrusted() func() {
	c := f.M.CPU
	prev := c.TrustedContext
	c.TrustedContext = true
	return func() { c.TrustedContext = prev }
}

// trusted runs fn with the trusted-context flag set (Fidelius's own
// sanctioned operations).
func (f *Fidelius) trusted(fn func() error) error {
	c := f.M.CPU
	prev := c.TrustedContext
	c.TrustedContext = true
	defer func() { c.TrustedContext = prev }()
	return fn()
}

// protectRO maps a frame read-only in the hypervisor's address space.
func (f *Fidelius) protectRO(pfn hw.PFN) error {
	leaf, err := f.M.HostPT.Leaf(uint64(pfn.Addr()))
	if err != nil {
		return err
	}
	if !leaf.Present() {
		return nil // already unmapped: stronger than read-only
	}
	if err := f.M.HostPT.SetLeaf(uint64(pfn.Addr()), leaf.WithoutFlags(mmu.FlagW)); err != nil {
		return err
	}
	f.M.TLBs.FlushEntry(hw.HostASID, uint64(pfn.Addr()))
	return nil
}

// unprotect restores a writable mapping (teardown path).
func (f *Fidelius) unprotect(pfn hw.PFN) error {
	leaf, err := f.M.HostPT.Leaf(uint64(pfn.Addr()))
	if err != nil {
		return err
	}
	if !leaf.Present() {
		leaf = mmu.MakePTE(pfn, mmu.FlagP|mmu.FlagNX)
	}
	if err := f.M.HostPT.SetLeaf(uint64(pfn.Addr()), leaf.WithFlags(mmu.FlagW)); err != nil {
		return err
	}
	f.M.TLBs.FlushEntry(hw.HostASID, uint64(pfn.Addr()))
	return nil
}

// unmapFromHypervisor removes a frame from the hypervisor's address space
// entirely (protected guest pages, Section 4.3.4).
func (f *Fidelius) unmapFromHypervisor(pfn hw.PFN) error {
	if err := f.M.HostPT.SetLeaf(uint64(pfn.Addr()), 0); err != nil {
		return err
	}
	f.M.TLBs.FlushEntry(hw.HostASID, uint64(pfn.Addr()))
	return nil
}

// remapToHypervisor restores a plain data mapping (shared pages).
func (f *Fidelius) remapToHypervisor(pfn hw.PFN) error {
	if err := f.M.HostPT.SetLeaf(uint64(pfn.Addr()), mmu.MakePTE(pfn, mmu.FlagP|mmu.FlagW|mmu.FlagNX)); err != nil {
		return err
	}
	f.M.TLBs.FlushEntry(hw.HostASID, uint64(pfn.Addr()))
	return nil
}

func (f *Fidelius) unmapStub(pageVA uint64) (mmu.PTE, error) {
	leaf, err := f.M.HostPT.Leaf(pageVA)
	if err != nil {
		return 0, err
	}
	if err := f.M.HostPT.SetLeaf(pageVA, 0); err != nil {
		return 0, err
	}
	f.M.TLBs.FlushEntry(hw.HostASID, pageVA)
	return leaf, nil
}

// GateCostBreakdown reports the type 3 gate's internal composition for
// the Section 7.2 discussion (TLB-entry flush and page-table write).
func GateCostBreakdown() (tlbFlush, ptWrite uint64) {
	return cycles.TLBFlushEntry, cycles.PTWrite
}

// recordViolation appends to the audit log and publishes the violation on
// the telemetry hub (counter always; event when tracing) — the "further
// auditing" surface of Section 5.3.
func (f *Fidelius) recordViolation(kind, detail string) {
	f.vmu.Lock()
	f.Violations = append(f.Violations, Violation{Kind: kind, Detail: detail})
	f.vmu.Unlock()
	h := f.hub()
	h.M.Violations.Inc()
	if h.Tracing() {
		h.EmitDetail(telemetry.KindViolation, 0, 0, 0, 0, 0, kind+": "+detail)
	}
	// Every gatekeeper denial also lands in the hash-chained audit
	// ledger, so an attack's outcome can be proven from the ledger rather
	// than asserted from in-memory state the hypervisor could scrub.
	h.Audit("gate-denial", 0, kind+": "+detail)
}

func (f *Fidelius) violation(kind, detail string) *cpu.ProtectionError {
	f.recordViolation(kind, detail)
	return &cpu.ProtectionError{Op: kind, Detail: detail}
}

// gate1 is the type 1 gate: disable interrupts, switch stacks, clear
// CR0.WP, sanity-check, run the policy-checked update, restore.
func (f *Fidelius) gate1(fn func() error) error {
	c := f.M.CPU
	h := f.hub()
	h.M.Gate1.Inc()
	if h.Tracing() {
		h.Emit(telemetry.KindGate1, 0, 0, cycles.Gate1, 0, 0)
	}
	c.Ctl.Cycles.Charge(cycles.Gate1)
	savedIF := c.IF
	c.IF = false
	return f.trusted(func() error {
		savedCR0 := c.CR0
		c.CR0 &^= cpu.CR0WP
		err := fn()
		c.CR0 = savedCR0
		c.IF = savedIF
		return err
	})
}

// Gate2Check is the type 2 gate: the checking-loop logic around a
// monopolised instruction. It is invoked as an address hook immediately
// after the instruction executes, verifying the policy held and reverting
// otherwise.
func (f *Fidelius) gate2Check(c *cpu.CPU) error {
	h := f.hub()
	h.M.Gate2.Inc()
	if h.Tracing() {
		h.Emit(telemetry.KindGate2, 0, 0, cycles.Gate2, 0, 0)
	}
	c.Ctl.Cycles.Charge(cycles.Gate2)
	if c.TrustedContext {
		return nil
	}
	// Post-instruction sanity: protection-relevant state must still
	// hold. A control-flow hijack that jumped straight to the
	// instruction is caught here (Section 6.2, "Disabling protection").
	if !c.WP() || !c.PagingEnabled() {
		c.CR0 |= cpu.CR0WP | cpu.CR0PG
		return f.violation("checking-loop", "protection bits cleared by direct execution")
	}
	if c.CR4&cpu.CR4SMEP == 0 {
		c.CR4 |= cpu.CR4SMEP
		return f.violation("checking-loop", "SMEP cleared by direct execution")
	}
	if c.EFER&cpu.EFERNXE == 0 {
		c.EFER |= cpu.EFERNXE
		return f.violation("checking-loop", "NXE cleared by direct execution")
	}
	return nil
}

// gate3 is the type 3 gate: temporarily add the mapping for an unmapped
// stub page, sanity-check, execute, withdraw the mapping and flush the
// affected TLB entries.
func (f *Fidelius) gate3(pageVA uint64, saved mmu.PTE, exec func() error) error {
	c := f.M.CPU
	h := f.hub()
	h.M.Gate3.Inc()
	if h.Tracing() {
		h.Emit(telemetry.KindGate3, 0, 0, cycles.Gate3, pageVA, 0)
	}
	c.Ctl.Cycles.Charge(cycles.Gate3)
	return f.trusted(func() error {
		// The map and unmap writes are part of the Gate3 constant.
		if err := f.hostPT.SetLeaf(pageVA, saved); err != nil {
			return err
		}
		err := exec()
		if uerr := f.hostPT.SetLeaf(pageVA, 0); uerr != nil && err == nil {
			err = uerr
		}
		f.M.TLBs.FlushEntry(hw.HostASID, pageVA)
		return err
	})
}

// BenchGate1 measures the type 1 gate transition cost (Section 7.2). Like
// any other gate traversal it runs under the gate lock.
func (f *Fidelius) BenchGate1(n int) uint64 {
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	start := f.M.Ctl.Cycles.Total()
	for i := 0; i < n; i++ {
		_ = f.gate1(func() error { return nil })
	}
	return f.M.Ctl.Cycles.Sub(start) / uint64(n)
}

// BenchGate2 measures the type 2 gate (checking loop) cost.
func (f *Fidelius) BenchGate2(n int) uint64 {
	start := f.M.Ctl.Cycles.Total()
	for i := 0; i < n; i++ {
		_ = f.gate2Check(f.M.CPU)
	}
	return f.M.Ctl.Cycles.Sub(start) / uint64(n)
}

// BenchGate3 measures the type 3 gate (add new mapping) cost, excluding
// the gated instruction itself.
func (f *Fidelius) BenchGate3(n int) uint64 {
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	start := f.M.Ctl.Cycles.Total()
	for i := 0; i < n; i++ {
		_ = f.gate3(f.M.Stubs.VmrunPg, f.savedVmrunPTE, func() error { return nil })
	}
	return f.M.Ctl.Cycles.Sub(start) / uint64(n)
}

// installHooks wires the Table 2 instruction policies, the execute-once
// policy, the checking loops, and the page-fault mediation for write-once
// and write-forbidding policies.
func (f *Fidelius) installHooks() {
	c := f.M.CPU

	c.Hooks.CR0Write = func(c *cpu.CPU, old, new uint64) error {
		if c.TrustedContext {
			return nil
		}
		if old&cpu.CR0PG != 0 && new&cpu.CR0PG == 0 {
			return f.violation("mov cr0", "PG bit cannot be cleared")
		}
		if old&cpu.CR0WP != 0 && new&cpu.CR0WP == 0 {
			return f.violation("mov cr0", "WP bit cannot be cleared")
		}
		return nil
	}
	c.Hooks.CR4Write = func(c *cpu.CPU, old, new uint64) error {
		if c.TrustedContext {
			return nil
		}
		if old&cpu.CR4SMEP != 0 && new&cpu.CR4SMEP == 0 {
			return f.violation("mov cr4", "SMEP bit cannot be cleared")
		}
		return nil
	}
	c.Hooks.MSRWrite = func(c *cpu.CPU, msr uint32, old, new uint64) error {
		if c.TrustedContext {
			return nil
		}
		if msr == cpu.MSREFER && old&cpu.EFERNXE != 0 && new&cpu.EFERNXE == 0 {
			return f.violation("wrmsr", "NXE bit in EFER cannot be cleared")
		}
		return nil
	}
	c.Hooks.CR3Write = func(c *cpu.CPU, old, new uint64) error {
		// No trusted-context exemption: Fidelius itself never switches
		// address spaces (that is the whole point of the WP-based type
		// 1 gate), so every CR3 target must be a valid root.
		e, err := f.PIT.Get(hw.PhysAddr(new).Frame())
		if err != nil {
			return err
		}
		if !e.Valid() || e.Use() != xen.UseXenPageTable {
			return f.violation("mov cr3", fmt.Sprintf("target cr3 %#x is not a valid page table", new))
		}
		return nil
	}
	c.Hooks.Exec = func(c *cpu.CPU, addr uint64, op isa.Op) error {
		if op == isa.OpLgdt || op == isa.OpLidt {
			f.execCount[addr]++
			if f.execCount[addr] > 1 && !c.TrustedContext {
				return f.violation("execute-once", fmt.Sprintf("%v at %#x executed more than once", op, addr))
			}
		}
		return nil
	}
	// Checking loops (type 2 gates) immediately after the monopolised
	// instructions: each stub is two bytes, so the hook sits at +2.
	c.Hooks.Addr = map[uint64]func(*cpu.CPU) error{
		f.M.Stubs.MovCR0 + 2: f.gate2Check,
		f.M.Stubs.MovCR4 + 2: f.gate2Check,
		f.M.Stubs.Wrmsr + 2:  f.gate2Check,
		f.M.Stubs.Lgdt + 2:   f.gate2Check,
		f.M.Stubs.Lidt + 2:   f.gate2Check,
	}

	c.PageFaultFn = f.pageFault
	c.PageFaultDoneFn = func(*cpu.CPU) { f.settlePending() }
}

// pageFault mediates write faults: write-once pages get their single
// sanctioned write; writes to hypervisor code pages are impeded and
// logged (write-forbidding); everything else propagates.
func (f *Fidelius) pageFault(c *cpu.CPU, pf *mmu.PageFault) bool {
	if pf.Access != mmu.Write || pf.Reason != mmu.WriteProtected {
		return false
	}
	pfn := hw.PhysAddr(pf.VA).Frame() // direct map: VA == PA
	if vec, ok := f.writeOnce[pfn]; ok {
		if vec.anyUsed() {
			f.recordViolation("write-once", fmt.Sprintf("second write to page %#x", uint64(pfn)))
			return false
		}
		vec.markRange(0, hw.PageSize)
		if err := f.trusted(func() error {
			leaf, err := f.M.HostPT.Leaf(uint64(pfn.Addr()))
			if err != nil {
				return err
			}
			return f.M.HostPT.SetLeaf(uint64(pfn.Addr()), leaf.WithFlags(mmu.FlagW))
		}); err != nil {
			return false
		}
		f.M.TLBs.FlushEntry(hw.HostASID, uint64(pfn.Addr()))
		f.pendingReprotect = append(f.pendingReprotect, pfn)
		return true
	}
	e, err := f.PIT.Get(pfn)
	if err == nil && e.Valid() && e.Use() == xen.UseXenCode {
		f.recordViolation("write-forbidding", fmt.Sprintf("write to code page %#x", uint64(pfn)))
		return false
	}
	return false
}

// settlePending re-arms write-once pages after their mediated write.
func (f *Fidelius) settlePending() {
	for _, pfn := range f.pendingReprotect {
		_ = f.protectRO(pfn)
	}
	f.pendingReprotect = nil
}

// VMState returns Fidelius's record for a protected domain.
func (f *Fidelius) VM(d *xen.Domain) (*VMState, bool) {
	return f.lookupVM(d.ID)
}

// lookupVM reads a VM record under the gate lock (the map is trusted
// state shared with the gatekeeper's hot paths).
func (f *Fidelius) lookupVM(id xen.DomID) (*VMState, bool) {
	f.M.Host.Lock()
	defer f.M.Host.Unlock()
	st, ok := f.vms[id]
	return st, ok
}

// storeVM publishes a VM record under the gate lock.
func (f *Fidelius) storeVM(st *VMState) {
	f.M.Host.Lock()
	f.vms[st.Dom.ID] = st
	f.M.Host.Unlock()
}

// ViolationLog returns a copy of the audit log, safe against concurrent
// gate activity.
func (f *Fidelius) ViolationLog() []Violation {
	f.vmu.Lock()
	defer f.vmu.Unlock()
	return append([]Violation{}, f.Violations...)
}
