// The world switch uses iter (Go 1.23); go.mod stays at 1.22, which benchmark/go.mod pins.
//go:build go1.23

package xen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"

	"fidelius/internal/cpu"
	"fidelius/internal/cycles"
	"fidelius/internal/hw"
	"fidelius/internal/mmu"
	"fidelius/internal/telemetry"
)

// GuestFunc is a guest kernel: it runs on a vCPU coroutine against a
// GuestEnv and returns when the guest shuts down.
type GuestFunc func(g *GuestEnv) error

// exitEvent carries guest state across the guest→host world switch.
type exitEvent struct {
	reason cpu.ExitReason
	info1  uint64
	info2  uint64
	regs   [cpu.NumRegs]uint64
	rip    uint64
	done   bool
	err    error
}

// resumeMsg carries (possibly hypervisor-modified) state back into the
// guest on VMRUN.
type resumeMsg struct {
	regs [cpu.NumRegs]uint64
	// fault injects a failure for the guest's faulting access: the
	// hypervisor could not (or refused to) resolve the exit.
	fault bool
}

// VCPU is a guest virtual CPU: a coroutine running the guest function,
// handing control to the host on every VMEXIT. Exactly one side runs at
// any time, and each switch is a happens-before edge, so the plain fields
// in and out carry the world switch in either direction.
type VCPU struct {
	dom *Domain
	x   *Xen
	// next runs the guest until its next exit or its return; stop
	// unwinds a guest parked in exit.
	next   func() (struct{}, bool)
	stop   func()
	in     resumeMsg // host → guest, set before next
	out    exitEvent // guest → host, set before the guest yields
	halted bool
	err    error

	// ctl is the controller port the guest side of this vCPU drives: the
	// machine's root controller under serial scheduling, a per-vCPU view
	// while a parallel runner owns the domain. The runner swaps it only
	// while the guest is parked in exit(), so the switch back into the
	// guest orders the swap.
	ctl *hw.Controller
}

// errStopped is the sentinel exit panics with to unwind a guest whose
// vCPU was stopped; the coroutine body recovers it.
var errStopped = errors.New("xen: vcpu stopped")

// GuestEnv is the machine as seen from inside the guest: virtual memory
// through the two-dimensional SEV translation, hypercalls, CPUID, and the
// guest's register file.
type GuestEnv struct {
	v     *VCPU
	yield func(struct{}) bool
	Regs  [cpu.NumRegs]uint64
	RIP   uint64

	nested *mmu.Nested
	paging bool

	// tlb caches completed translations per page; it flushes whenever
	// the host mutates this domain's NPT (tracked by Domain.NPTGen),
	// mirroring a per-vCPU hardware TLB.
	tlb    map[gTLBKey]hw.Access
	tlbGen uint64

	// Info is the guest's start info (read from the start-info page at
	// boot).
	Info StartInfo
}

type gTLBKey struct {
	page uint64
	acc  mmu.AccessType
	raw  bool // the shared window (WriteUnencrypted/ReadUnencrypted)
}

// Dom returns the domain this environment belongs to.
func (g *GuestEnv) Dom() *Domain { return g.v.dom }

// exit performs a VMEXIT and parks the guest until the hypervisor
// resumes it. The register file crosses the boundary in both directions —
// unencrypted, exactly as on SEV without -ES.
func (g *GuestEnv) exit(reason cpu.ExitReason, info1, info2 uint64) bool {
	g.v.out = exitEvent{reason: reason, info1: info1, info2: info2, regs: g.Regs, rip: g.RIP}
	if !g.yield(struct{}{}) {
		panic(errStopped)
	}
	r := &g.v.in
	g.Regs = r.regs
	if gen := g.v.dom.NPTGen; gen != g.tlbGen {
		g.tlb = nil
		g.tlbGen = gen
	}
	// A scheduler may have handed the vCPU a different controller port
	// (serial root vs parallel per-vCPU view) while the guest was parked.
	if g.nested.Ctl != g.v.ctl {
		g.nested.Ctl = g.v.ctl
	}
	return r.fault
}

// ErrInjectedFault is returned to guest code whose memory access the
// hypervisor could not or would not back.
var ErrInjectedFault = errors.New("xen: hypervisor injected fault")

// translate resolves a guest address to the controller access that
// reaches it. The shared window (raw) and every access before
// EnablePaging take a GPA and walk only the NPT; after EnablePaging the
// full two-dimensional walk applies. mmu.GuestAccess picks the key,
// except in the shared window: it is the host-visible mapping, so it is
// plaintext whatever the C-bits say. NPT violations exit to the
// hypervisor and retry.
func (g *GuestEnv) translate(addr uint64, acc mmu.AccessType, raw bool) (hw.Access, error) {
	key := gTLBKey{page: mmu.PageBase(addr), acc: acc, raw: raw}
	off := hw.PhysAddr(addr & (hw.PageSize - 1))
	if a, ok := g.tlb[key]; ok {
		a.PA += off
		g.v.ctl.Cycles.Charge(1)
		return a, nil
	}
	nptOnly := raw || !g.paging
	for {
		var a hw.Access
		var err error
		if nptOnly {
			var tr mmu.Translation
			tr, err = g.nested.NPT.Translate(addr, acc, true, false)
			if raw {
				a = hw.Access{PA: tr.HPA}
			} else {
				a = mmu.GuestAccess(tr.HPA, g.nested.ASID, true, tr.PTE)
			}
		} else {
			var tr mmu.NestedTranslation
			tr, err = g.nested.Translate(addr, acc, false)
			a = tr.Access
		}
		npfGPA, npfAcc := addr, acc
		switch f := err.(type) {
		case nil:
			if g.tlb == nil {
				g.tlb = make(map[gTLBKey]hw.Access)
			}
			g.tlb[key] = a
			a.PA += off
			return a, nil
		case *mmu.NPTViolation:
			npfGPA, npfAcc = f.GPA, f.Access
		case *mmu.PageFault:
			if !nptOnly {
				return hw.Access{}, err // guest-side page fault: guest kernel's problem
			}
		default:
			return hw.Access{}, err
		}
		if g.exit(cpu.ExitNPF, uint64(npfAcc), mmu.PageBase(npfGPA)) {
			return hw.Access{}, ErrInjectedFault
		}
	}
}

func (g *GuestEnv) access(addr uint64, buf []byte, acc mmu.AccessType, raw bool) error {
	done := 0
	for done < len(buf) {
		cur := addr + uint64(done)
		n := int(hw.PageSize - cur&(hw.PageSize-1))
		if n > len(buf)-done {
			n = len(buf) - done
		}
		a, err := g.translate(cur, acc, raw)
		if err != nil {
			return err
		}
		if acc == mmu.Write {
			err = g.v.ctl.Write(a, buf[done:done+n])
		} else {
			err = g.v.ctl.Read(a, buf[done:done+n])
		}
		if err != nil {
			return err
		}
		done += n
	}
	return nil
}

// Read reads guest memory at a guest (virtual, once paging is on) address.
func (g *GuestEnv) Read(addr uint64, buf []byte) error { return g.access(addr, buf, mmu.Read, false) }

// Write writes guest memory.
func (g *GuestEnv) Write(addr uint64, data []byte) error {
	return g.access(addr, data, mmu.Write, false)
}

// Read64 reads a little-endian word from guest memory.
func (g *GuestEnv) Read64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := g.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Write64 writes a little-endian word to guest memory.
func (g *GuestEnv) Write64(addr, val uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return g.Write(addr, b[:])
}

// WriteUnencrypted writes guest-physical memory through the shared
// window, which is plaintext whatever the C-bits say — used by PV drivers
// and cross-VM sharing to fill host-visible buffers.
func (g *GuestEnv) WriteUnencrypted(gpa uint64, data []byte) error {
	return g.access(gpa, data, mmu.Write, true)
}

// ReadUnencrypted reads guest-physical memory through the shared window.
func (g *GuestEnv) ReadUnencrypted(gpa uint64, buf []byte) error {
	return g.access(gpa, buf, mmu.Read, true)
}

// Hypercall issues a hypercall: nr in R0, up to five arguments in R1..R5;
// the result comes back in R0 and the error code in R1 (0 = ok).
func (g *GuestEnv) Hypercall(nr uint64, args ...uint64) (uint64, error) {
	g.Regs[0] = nr
	for i := 1; i <= 5; i++ {
		g.Regs[i] = 0
	}
	for i, a := range args {
		if i >= 5 {
			break
		}
		g.Regs[1+i] = a
	}
	g.exit(cpu.ExitVMMCALL, nr, 0)
	if g.Regs[1] != 0 {
		return g.Regs[0], fmt.Errorf("xen: hypercall %d failed: errno %d", nr, g.Regs[1])
	}
	return g.Regs[0], nil
}

// CPUID executes CPUID, exiting to the hypervisor which fills R0..R3.
func (g *GuestEnv) CPUID(leaf uint32) [4]uint64 {
	g.Regs[0] = uint64(leaf)
	g.exit(cpu.ExitCPUID, uint64(leaf), 0)
	return [4]uint64{g.Regs[0], g.Regs[1], g.Regs[2], g.Regs[3]}
}

// Halt exits with HLT (idle); the hypervisor resumes the guest
// immediately in this synchronous model.
func (g *GuestEnv) Halt() { g.exit(cpu.ExitHLT, 0, 0) }

// Charge adds guest compute cycles to this vCPU's counter (the ALU work
// of the synthetic workloads).
func (g *GuestEnv) Charge(n uint64) { g.v.ctl.Cycles.Charge(n) }

// Cycles reads the machine's global cycle clock (the guest's TSC): the
// base counter plus every live per-vCPU counter.
func (g *GuestEnv) Cycles() uint64 { return g.v.ctl.Now() }

// ConsolePrint writes a string to the domain's console through the
// console hypercall, eight bytes per exit.
func (g *GuestEnv) ConsolePrint(s string) error {
	for len(s) > 0 {
		n := len(s)
		if n > 8 {
			n = 8
		}
		var word uint64
		for i := 0; i < n; i++ {
			word |= uint64(s[i]) << (8 * i)
		}
		if _, err := g.Hypercall(HCConsoleIO, word, uint64(n)); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

// BuildIdentityPT constructs an identity-mapped guest page table (GVA ==
// GPA) in the top frames of guest memory, with the C-bit set on every
// leaf except the frames listed in plainGFNs (the DMA-shared pages). The
// leaf C-bits matter only to an SEV guest: a guest without SEV has no key
// of its own, so only the NPT C-bit can encrypt its memory. It returns
// the guest root GPA. Runs pre-paging, writing through guest-physical
// access.
func (g *GuestEnv) BuildIdentityPT(plainGFNs map[uint64]bool) (uint64, error) {
	n := uint64(g.v.dom.MemPages)
	// Table pages from the top of guest memory downward.
	nextTable := n
	zero := make([]byte, hw.PageSize)
	allocTable := func() (uint64, error) {
		if nextTable == 0 {
			return 0, fmt.Errorf("xen: guest out of frames for page tables")
		}
		nextTable--
		return nextTable, g.Write(nextTable<<hw.PageShift, zero)
	}
	rootGFN, err := allocTable()
	if err != nil {
		return 0, err
	}
	slot := func(tableGFN uint64, idx int) uint64 { return tableGFN<<hw.PageShift + uint64(idx*8) }
	// Map the guest's own memory plus the grant window above it, where
	// foreign shared pages appear. Shared memory must be plaintext
	// (no C-bit): each guest has its own key, so cross-VM sharing and
	// DMA both require unencrypted pages (Section 2.2).
	for gfn := uint64(0); gfn < n+GrantWindowPages; gfn++ {
		va := gfn << hw.PageShift
		table := rootGFN
		for level := mmu.Levels - 1; level > 0; level-- {
			idx := mmu.Index(va, level)
			v, err := g.Read64(slot(table, idx))
			if err != nil {
				return 0, err
			}
			entry := mmu.PTE(v)
			if !entry.Present() {
				nt, err := allocTable()
				if err != nil {
					return 0, err
				}
				entry = mmu.MakePTE(hw.PFN(nt), mmu.FlagP|mmu.FlagW|mmu.FlagU)
				if err := g.Write64(slot(table, idx), uint64(entry)); err != nil {
					return 0, err
				}
			}
			table = uint64(entry.PFN())
		}
		flags := mmu.FlagP | mmu.FlagW | mmu.FlagC
		if plainGFNs[gfn] || gfn >= n {
			flags &^= mmu.FlagC
		}
		if err := g.Write64(slot(table, mmu.Index(va, 0)), uint64(mmu.MakePTE(hw.PFN(gfn), flags))); err != nil {
			return 0, err
		}
	}
	return rootGFN << hw.PageShift, nil
}

// EnablePaging switches the guest to virtual addressing with the page
// table rooted at rootGPA. Loading CR3 flushes the guest TLB, so no
// translation made before paging outlives it.
func (g *GuestEnv) EnablePaging(rootGPA uint64) {
	g.nested.GuestRoot = rootGPA
	g.paging = true
	g.tlb = nil
}

// PagingEnabled reports whether the guest has enabled paging.
func (g *GuestEnv) PagingEnabled() bool { return g.paging }

// StartVCPU sets the guest function up as a vCPU coroutine. The guest
// first runs at the first VMRUN.
func (x *Xen) StartVCPU(d *Domain, fn GuestFunc) *VCPU {
	v := &VCPU{dom: d, x: x, ctl: x.M.Ctl}
	d.vcpu = v
	v.next, v.stop = iter.Pull(func(yield func(struct{}) bool) {
		g := &GuestEnv{
			v:     v,
			yield: yield,
			Regs:  v.in.regs,
			Info:  d.Info,
			nested: &mmu.Nested{
				Ctl:   v.ctl,
				NPT:   d.NPT,
				ASID:  d.ASID,
				Dirty: d.Dirty,
			},
		}
		defer func() {
			// A panicking guest shuts its vCPU down, the analogue of a
			// triple fault; a stopped guest has nothing left to report.
			if r := recover(); r != nil && r != errStopped {
				v.out = exitEvent{reason: cpu.ExitShutdown, regs: g.Regs, done: true,
					err: fmt.Errorf("xen: guest panicked: %v", r)}
			}
		}()
		err := fn(g)
		v.out = exitEvent{reason: cpu.ExitShutdown, regs: g.Regs, done: true, err: err}
	})
	return v
}

// worldSwitch is installed as the boot CPU's VMRUN handler: it resolves
// the VMCB to its domain and switches into the guest on the boot CPU. It
// runs under the gate lock (the VMRUN stub executes on the boot CPU); the
// registry read lock is released right after the lookup.
func (x *Xen) worldSwitch(vmcbPA uint64) error {
	x.domsMu.RLock()
	d, ok := x.vmcbToDom[hw.PhysAddr(vmcbPA)]
	x.domsMu.RUnlock()
	if !ok {
		return fmt.Errorf("xen: vmrun with unknown vmcb %#x", vmcbPA)
	}
	v := d.vcpu
	if v == nil {
		return fmt.Errorf("xen: domain %d has no vcpu", d.ID)
	}
	if v.halted {
		return fmt.Errorf("xen: domain %d vcpu already shut down", d.ID)
	}
	return switchGuest(d, x.M.CPU)
}

// switchGuest is the guest round trip both schedulers share: it resumes
// d's guest coroutine with the register file from the VMCB, runs it to
// the next exit, and writes the guest state back into the VMCB and into
// c's (plaintext!) register file. c is the CPU the quantum runs on — the
// boot CPU under serial scheduling, a runner's core under parallel.
func switchGuest(d *Domain, c *cpu.CPU) error {
	v := d.vcpu
	vmcb, err := cpu.LoadVMCB(c.Ctl, d.VMCBPA())
	if err != nil {
		return err
	}
	v.in = resumeMsg{regs: vmcb.Regs, fault: d.pendingFault}
	d.pendingFault = false
	v.next()
	ev := &v.out
	c.Ctl.Cycles.Charge(cycles.VMExit)
	tel := c.Ctl.Telem
	tel.M.VMExits.Inc()
	if tel.Tracing() {
		tel.Emit(telemetry.KindVMExit, uint32(d.ID), uint32(d.ASID),
			cycles.VMExit, uint64(ev.reason), 0)
	}
	if ev.done {
		v.halted = true
		v.err = ev.err
	}
	vmcb.ExitCode = ev.reason
	vmcb.ExitInfo1 = ev.info1
	vmcb.ExitInfo2 = ev.info2
	vmcb.Regs = ev.regs
	vmcb.RIP = ev.rip
	if err := cpu.StoreVMCB(c.Ctl, d.VMCBPA(), vmcb); err != nil {
		return err
	}
	// The guest's general purpose registers land in the host register
	// file in plaintext — the SEV-without-ES exposure of Section 2.2.
	c.Regs = ev.regs
	return nil
}
