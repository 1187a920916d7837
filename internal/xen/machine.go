// Package xen implements the untrusted virtualization stack of the paper's
// platform: the hypervisor (domains, VMCB lifecycle, VMEXIT dispatch,
// nested-page-table management, hypercalls), the grant-table memory sharing
// mechanism, event channels, a XenStore, and para-virtualized block I/O
// front and back ends — all running over the simulated hardware in
// internal/hw, internal/cpu and internal/mmu, with SEV support from
// internal/sev.
//
// Everything in this package is *outside* Fidelius's trust boundary. The
// package deliberately exposes the raw capabilities a malicious hypervisor
// has (direct frame access, NPT rewrites, grant-table forgery); Fidelius
// (internal/core) revokes them via the interposer seams and the host page
// tables, and internal/attack demonstrates both sides.
package xen

import (
	"crypto/rand"
	"fmt"
	"io"
	"sync/atomic"

	"fidelius/internal/cpu"
	"fidelius/internal/hw"
	"fidelius/internal/isa"
	"fidelius/internal/lockrank"
	"fidelius/internal/mmu"
	"fidelius/internal/sev"
)

// LockWaits counts contended acquisitions per lock class — an acquisition
// that could not be satisfied immediately bumps its class counter. The
// hypervisor exports these as the xen.lock_waits metric family; the
// 64-domain stress test asserts the domain and gate classes stay at zero
// across concurrent quanta, which is the "quanta of distinct domains do
// not contend" property in checkable form.
type LockWaits struct {
	Domain   atomic.Uint64 // per-domain locks (rank: domain)
	Events   atomic.Uint64 // event-channel handler table (rank: events)
	Store    atomic.Uint64 // XenStore (rank: store)
	ASIDPool atomic.Uint64 // ASID allocator (rank: asid-pool)
	Gate     atomic.Uint64 // host/gate lock (rank: gate)
	Doms     atomic.Uint64 // domain registry (rank: doms)
	Firmware atomic.Uint64 // SEV firmware tables (rank: firmware)
	Frames   atomic.Uint64 // per-domain gfn→pfn maps (rank: frames)
	Alloc    atomic.Uint64 // physical page allocator (rank: alloc)
	Bus      atomic.Uint64 // TLB shootdown bus (rank: bus)
}

// Stubs records where the hypervisor's privileged-instruction stubs live.
// Each stub is the single sanctioned copy of one privileged instruction
// (Section 4.1.2): the "checking loop" instructions remain mapped and get
// monopolisation plus a post-instruction hook; VMRUN and MOV CR3 sit on
// their own pages so Fidelius can unmap them, and MOV CR3 is placed in the
// last bytes of its page with the following HLT on the next page.
type Stubs struct {
	Base     uint64 // first code page VA (== PA, direct map)
	MovCR0   uint64
	MovCR4   uint64
	Wrmsr    uint64
	Lgdt     uint64
	Lidt     uint64
	VmrunPg  uint64 // page base of the VMRUN stub
	Vmrun    uint64
	MovCR3Pg uint64 // page base of the MOV CR3 stub
	MovCR3   uint64
	ContPg   uint64 // page after MOV CR3 holding its continuation
	Pages    []hw.PFN
}

// Config sizes a machine.
type Config struct {
	MemPages   int // physical memory size in 4 KiB pages
	CacheLines int // CPU cache capacity in 64-byte lines
}

// Machine is one physical host: memory, controller, CPU, SEV firmware,
// the frame allocator, the host page table (an identity "direct map" as in
// Xen) and the privileged instruction stubs.
type Machine struct {
	Ctl    *hw.Controller
	CPU    *cpu.CPU
	FW     *sev.Firmware
	Alloc  *FrameAlloc
	HostPT *mmu.Space
	Stubs  Stubs

	// TLBs is the TLB shootdown bus: every online core's TLB is
	// registered here, so protection-relevant invalidations (the type 3
	// gate unmaps in particular) reach remote cores as INVLPGA IPIs
	// would. The boot CPU registers at machine build; ScheduleParallel
	// registers one core per domain slot.
	TLBs *mmu.ShootdownBus

	// Host is the host/gate lock (lock rank: gate): it serializes the
	// genuinely shared host-side machinery — the boot CPU's register
	// file and privileged stubs, gate transitions and trusted-context
	// entry, and raw grant-table bytes. Per-quantum work of distinct
	// domains must never need it except at real sharing points (grant
	// map/unmap, event-channel handler invocation, serve-ring
	// doorbells); the Waits.Gate counter proves it.
	Host lockrank.Mutex

	// Waits aggregates lock contention per class for the whole machine.
	Waits *LockWaits
}

// NewMachine builds and boots the bare machine: physical memory, an
// identity-mapped host address space (code pages read-only and executable,
// everything else writable and NX), the assembled privileged stubs, and an
// initialised SEV firmware.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.MemPages < 64 {
		return nil, fmt.Errorf("xen: need at least 64 pages, got %d", cfg.MemPages)
	}
	ctl := hw.NewController(hw.NewMemory(cfg.MemPages), cfg.CacheLines)
	m := &Machine{
		Ctl:   ctl,
		CPU:   cpu.New(ctl),
		FW:    sev.NewFirmware(ctl),
		Alloc: NewFrameAlloc(1, cfg.MemPages),
		TLBs:  &mmu.ShootdownBus{},
		Waits: &LockWaits{},
	}
	m.Host.Init(lockrank.RankGate, &m.Waits.Gate)
	m.Alloc.SetLockInfo(lockrank.RankAlloc, &m.Waits.Alloc)
	m.TLBs.SetLockInfo(lockrank.RankBus, &m.Waits.Bus)
	m.FW.SetLockInfo(lockrank.RankFirmware, &m.Waits.Firmware)
	m.TLBs.Register(m.CPU.TLB)
	// BIOS enables SME: a random host key lives in slot 0 from boot.
	var smeKey hw.Key
	if _, err := io.ReadFull(rand.Reader, smeKey[:]); err != nil {
		return nil, err
	}
	if err := ctl.Eng.Install(hw.HostASID, smeKey); err != nil {
		return nil, err
	}
	if err := m.buildStubs(); err != nil {
		return nil, err
	}
	if err := m.buildHostPT(); err != nil {
		return nil, err
	}
	m.CPU.CR3 = uint64(m.HostPT.Root.Addr())
	m.CPU.CR0 = cpu.CR0PG | cpu.CR0WP
	m.CPU.CR4 = cpu.CR4SMEP
	m.CPU.EFER = cpu.EFERNXE
	return m, nil
}

// buildStubs assembles the privileged instruction stubs into four
// dedicated code pages.
func (m *Machine) buildStubs() error {
	var pages []hw.PFN
	for i := 0; i < 4; i++ {
		pfn, err := m.Alloc.Alloc(UseXenCode, 0)
		if err != nil {
			return err
		}
		pages = append(pages, pfn)
	}
	s := &m.Stubs
	s.Pages = pages
	s.Base = uint64(pages[0].Addr())

	// Page 0: the monopolised, always-mapped instructions. Each stub is
	// instruction (2 bytes) + HLT (1 byte).
	var code []byte
	place := func(in isa.Inst) uint64 {
		addr := s.Base + uint64(len(code))
		code = in.Encode(code)
		code = isa.Inst{Op: isa.OpHlt}.Encode(code)
		return addr
	}
	s.MovCR0 = place(isa.Inst{Op: isa.OpMovCR0, Reg: 0})
	s.MovCR4 = place(isa.Inst{Op: isa.OpMovCR4, Reg: 0})
	s.Wrmsr = place(isa.Inst{Op: isa.OpWrmsr})
	s.Lgdt = place(isa.Inst{Op: isa.OpLgdt, Reg: 0})
	s.Lidt = place(isa.Inst{Op: isa.OpLidt, Reg: 0})
	if err := m.Ctl.Mem.WriteRaw(pages[0].Addr(), code); err != nil {
		return err
	}

	// Page 1: VMRUN on its own page (type 3 gate target).
	s.VmrunPg = uint64(pages[1].Addr())
	s.Vmrun = s.VmrunPg
	vm := isa.Inst{Op: isa.OpVmrun, Reg: 0}.Encode(nil)
	vm = isa.Inst{Op: isa.OpHlt}.Encode(vm)
	if err := m.Ctl.Mem.WriteRaw(pages[1].Addr(), vm); err != nil {
		return err
	}

	// Page 2: MOV CR3 in the last two bytes; page 3: the continuation
	// HLT — the Section 4.1.2 placement rule.
	s.MovCR3Pg = uint64(pages[2].Addr())
	s.MovCR3 = s.MovCR3Pg + hw.PageSize - 2
	cr3 := isa.Inst{Op: isa.OpMovCR3, Reg: 0}.Encode(nil)
	if err := m.Ctl.Mem.WriteRaw(hw.PhysAddr(s.MovCR3), cr3); err != nil {
		return err
	}
	s.ContPg = uint64(pages[3].Addr())
	if err := m.Ctl.Mem.WriteRaw(pages[3].Addr(), isa.Inst{Op: isa.OpHlt}.Encode(nil)); err != nil {
		return err
	}
	return nil
}

// buildHostPT constructs the identity direct map: every physical frame is
// mapped at the virtual address equal to its physical address. Code pages
// are read-only and executable; all other pages are writable and NX (data
// execution prevention).
func (m *Machine) buildHostPT() error {
	root, err := m.Alloc.Alloc(UseXenPageTable, 0)
	if err != nil {
		return err
	}
	var zero [hw.PageSize]byte
	if err := m.Ctl.Mem.WriteRaw(root.Addr(), zero[:]); err != nil {
		return err
	}
	m.HostPT = &mmu.Space{Ctl: m.Ctl, Root: root}
	code := map[hw.PFN]bool{}
	for _, p := range m.Stubs.Pages {
		code[p] = true
	}
	ad := allocAdapter{a: m.Alloc, use: UseXenPageTable}
	for pfn := hw.PFN(0); pfn < hw.PFN(m.Alloc.Total()); pfn++ {
		flags := mmu.FlagP | mmu.FlagW | mmu.FlagNX
		if code[pfn] {
			flags = mmu.FlagP // read-only, executable
		}
		if err := m.HostPT.Map(ad, uint64(pfn.Addr()), mmu.MakePTE(pfn, flags)); err != nil {
			return err
		}
	}
	return nil
}

// NewCore brings an additional simulated core online for a parallel
// domain runner: a private register file and TLB over a per-vCPU
// controller view, sharing the machine's control-register state. The TLB
// joins the shootdown bus so cross-core invalidations reach it; events it
// emits land on the shared hub, but its metrics are not re-registered
// (the boot CPU's TLB serves the tlb.* metric names).
func (m *Machine) NewCore() *cpu.CPU {
	c := &cpu.CPU{
		Ctl:  m.Ctl.View(),
		TLB:  mmu.NewTLB(),
		IF:   true,
		CR0:  m.CPU.CR0,
		CR3:  m.CPU.CR3,
		CR4:  m.CPU.CR4,
		EFER: m.CPU.EFER,
	}
	c.TLB.Hub = m.Ctl.Telem
	m.TLBs.Register(c.TLB)
	return c
}

// ReleaseCore takes a NewCore core offline: its TLB leaves the shootdown
// bus and its private cycle counter folds back into the machine clock.
func (m *Machine) ReleaseCore(c *cpu.CPU) {
	m.TLBs.Unregister(c.TLB)
	c.Ctl.Release()
}

// ExecStub runs a privileged stub on the CPU with r0 preloaded. This is
// how hypervisor (and Fidelius) logic executes its single sanctioned copy
// of a privileged instruction.
func (m *Machine) ExecStub(addr, r0 uint64) error {
	m.CPU.Regs[0] = r0
	return m.CPU.Run(addr, 16)
}

// CodeRegion reads back the hypervisor's code pages for binary scanning.
func (m *Machine) CodeRegion() ([]byte, error) {
	out := make([]byte, 0, len(m.Stubs.Pages)*hw.PageSize)
	var page [hw.PageSize]byte
	for _, pfn := range m.Stubs.Pages {
		if err := m.Ctl.Mem.ReadRaw(pfn.Addr(), page[:]); err != nil {
			return nil, err
		}
		out = append(out, page[:]...)
	}
	return out, nil
}
