package xen

import (
	"errors"
	"fmt"
	"sync/atomic"

	"fidelius/internal/cpu"
	"fidelius/internal/hw"
	"fidelius/internal/lockrank"
	"fidelius/internal/mmu"
	"fidelius/internal/sev"
	"fidelius/internal/telemetry"
)

// ErrNoSuchHypercall reports an unimplemented hypercall number.
var ErrNoSuchHypercall = errors.New("xen: no such hypercall")

// CPUIDModel is the canonical CPUID response of the simulated processor.
// Fidelius's Iago policy verifies the hypervisor returns exactly these
// values (Section 6.2, "the Iago attacks can be avoided since ...
// appropriate policies can be defined to check the values returned by the
// hypervisor before VMRUN").
var CPUIDModel = [4]uint64{0x0F1DE115, 0x414D44, 0x5345, 0x56}

// Xen is the hypervisor. It provides services (exit handling, scheduling,
// hypercalls, I/O backends) and — in the unprotected baseline — also
// manages every critical resource directly.
//
// There is no big hypervisor lock. Each domain carries its own lock
// (rank: domain) held for the whole quantum; shared structures — the
// domain registry, grant-table bytes, event-channel handler table,
// XenStore, frame and ASID allocators, SEV firmware tables — are each
// independently locked at their documented rank. The documented order is
//
//	domain → shared-shard → shootdown bus → tracer/ledger leaves
//
// enforced in debug builds by internal/lockrank (FIDELIUS_LOCKRANK=1).
// Quanta of distinct domains only meet at genuine sharing points: grant
// map/unmap (gate lock for the grant bytes), event-channel signalling
// (handler invocation under the gate lock) and serve-ring doorbells.
type Xen struct {
	M *Machine

	// Interpose is the resource-management seam; Fidelius replaces it.
	Interpose Interposer

	// ASIDs hands out guest ASIDs with DF_FLUSH-gated recycling, the
	// real SEV resource discipline (the pool's batch flush is wired to
	// the firmware's DFFlush).
	ASIDs *sev.ASIDPool

	// domsMu (lock rank: doms) guards the domain registry: Doms,
	// vmcbToDom, backends and the ID counter. Mutating entries *inside*
	// a Domain needs that domain's own lock, not this one.
	domsMu    lockrank.RWMutex
	Doms      map[DomID]*Domain
	nextDom   DomID
	vmcbToDom map[hw.PhysAddr]*Domain

	Store  *XenStore
	Events *EventBus

	// backends maps domain ID to its block backend (under domsMu).
	backends map[DomID]*BlockBackend

	// exitCounts tallies VMEXITs by reason, atomically (ExitCount reads).
	exitCounts [exitReasonSlots]atomic.Uint64
}

// exitReasonSlots bounds the exit-reason tally array; cpu.ExitReason
// values are small consecutive constants well below this.
const exitReasonSlots = 16

// New boots the hypervisor on a machine.
func New(m *Machine) (*Xen, error) {
	x := &Xen{
		M:         m,
		Doms:      make(map[DomID]*Domain),
		nextDom:   1, // dom0 is the host itself
		Store:     newXenStore(),
		vmcbToDom: make(map[hw.PhysAddr]*Domain),
		backends:  make(map[DomID]*BlockBackend),
	}
	x.domsMu.Init(lockrank.RankDoms, &m.Waits.Doms)
	x.Store.SetLockInfo(lockrank.RankStore, &m.Waits.Store)
	x.ASIDs = sev.NewASIDPool(0, m.FW.DFFlush)
	x.ASIDs.SetLockInfo(lockrank.RankASIDPool, &m.Waits.ASIDPool)
	x.Events = newEventBus(func(n uint64) { m.Ctl.Cycles.Charge(n) }, m.Ctl.Telem)
	x.Events.SetLockInfo(lockrank.RankEvents, &m.Waits.Events)
	// Event handlers touch shared host-side state (ring pages, disk,
	// the boot controller), so they run under the gate lock — one of the
	// genuine sharing points where concurrent quanta may contend.
	x.Events.invoke = func(h func() error) error {
		m.Host.Lock()
		defer m.Host.Unlock()
		return h()
	}
	x.Interpose = Direct{X: x}
	m.CPU.VMRunFn = x.worldSwitch
	if err := m.FW.Init(); err != nil {
		return nil, err
	}
	if tel := m.Ctl.Telem; tel != nil {
		w := m.Waits
		for _, lw := range []struct {
			name string
			c    *atomic.Uint64
		}{
			{"domain", &w.Domain}, {"events", &w.Events}, {"store", &w.Store},
			{"asid-pool", &w.ASIDPool}, {"gate", &w.Gate}, {"doms", &w.Doms},
			{"firmware", &w.Firmware}, {"frames", &w.Frames},
			{"alloc", &w.Alloc}, {"bus", &w.Bus},
		} {
			c := lw.c
			tel.Reg.RegisterFunc("xen.lock_waits", func() uint64 { return c.Load() },
				"lock", lw.name)
		}
		tel.Reg.RegisterFunc("sev.asid_flushes", x.ASIDs.Flushes)
	}
	return x, nil
}

// RunOnce executes one scheduling quantum of the domain on the boot CPU:
// enter the guest through the interposer's VMRUN, take one VMEXIT
// through the boundary hooks, and dispatch it. It returns done=true when
// the guest function has returned.
func (x *Xen) RunOnce(d *Domain) (done bool, err error) {
	tel := x.M.Ctl.Telem
	return x.runQuantum(d, x.M.Ctl,
		func() *telemetry.OpenSpan { return tel.OpenScope("quantum", uint32(d.ID), uint32(d.ASID)) },
		func() error { return x.vmrunStub(d.VMCBPA()) })
}

// runQuantum is the one quantum body of both schedulers: PreVMRun, guest
// entry, one VMEXIT through OnVMExit, and its dispatch. The domain's own
// lock is held for the whole quantum — including the guest window,
// which is harmless because nothing else schedules the domain — and
// shared locks (gate, doms, firmware, ...) are acquired inside it, per
// the documented order. The quantum's cycles, measured on ctl (the
// controller the quantum runs on), accumulate into the domain's own
// account with a lock-free atomic add. It returns done=true when the
// guest function has returned.
//
// Only two things differ by caller. open opens the quantum span: the
// serial scheduler scopes it under the ambient span, while a parallel
// runner parents it explicitly under its scheduler session, because the
// ambient register cannot attribute concurrent quanta. enter is the
// guest entry: the serial path executes the interposer's VMRUN (the
// type 3 gate under Fidelius), a parallel runner enters on its own core
// (enterCore). Both end in switchGuest.
func (x *Xen) runQuantum(d *Domain, ctl *hw.Controller, open func() *telemetry.OpenSpan, enter func() error) (done bool, err error) {
	if done, err := stopped(d); done {
		return true, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	start := ctl.Cycles.Total()
	sp := open()
	defer func() {
		spent := ctl.Cycles.Sub(start)
		d.cycles.Add(spent)
		ctl.Telem.M.ExitCycles.Observe(spent)
		sp.Close()
	}()
	if err := x.Interpose.PreVMRun(d, d.VMCBPA()); err != nil {
		return true, fmt.Errorf("xen: entry to %s vetoed: %w", d.Name, err)
	}
	if err := enter(); err != nil {
		return true, fmt.Errorf("xen: vmrun for %s: %w", d.Name, err)
	}
	// Guest has exited; the boundary hook shadows before any hypervisor
	// code inspects the state.
	if err := x.Interpose.OnVMExit(d, d.VMCBPA()); err != nil {
		return true, err
	}
	if done, err := stopped(d); done {
		return true, err
	}
	if err := x.handleExit(d); err != nil {
		return true, err
	}
	return false, nil
}

// stopped reports whether d's vCPU can take no further quantum, and why:
// it was never started, or its guest function has returned.
func stopped(d *Domain) (bool, error) {
	v := d.vcpu
	if v == nil {
		return true, fmt.Errorf("xen: domain %d not started", d.ID)
	}
	if v.halted {
		return true, v.err
	}
	return false, nil
}

// vmrunStub executes the interposer's VMRUN under the gate lock: the
// stub runs on the single shared boot CPU, so entry to it is a genuine
// shared-machine step (the serial scheduler's guest entry).
func (x *Xen) vmrunStub(vmcbPA hw.PhysAddr) error {
	x.M.Host.Lock()
	defer x.M.Host.Unlock()
	return x.Interpose.VMRun(vmcbPA)
}

// Run schedules the domain's vCPU until the guest function returns,
// dispatching every VMEXIT through the interposer boundary hooks and the
// hypervisor's handlers. It returns the guest function's error.
func (x *Xen) Run(d *Domain) error {
	sp := x.M.Ctl.Telem.OpenScope("run", uint32(d.ID), uint32(d.ASID))
	defer sp.Close()
	for {
		done, err := x.RunOnce(d)
		if done {
			return err
		}
	}
}

// Schedule round-robins a set of started domains, one exit per quantum,
// until every guest function has returned — the hypervisor's scheduling
// service, which Fidelius deliberately leaves in its hands (Section 3.1).
// It returns the first error of each domain, keyed by ID.
func (x *Xen) Schedule(doms []*Domain) map[DomID]error {
	sp := x.M.Ctl.Telem.OpenScope("schedule", 0, 0)
	defer sp.Close()
	errs := make(map[DomID]error)
	pending := append([]*Domain{}, doms...)
	for len(pending) > 0 {
		next := pending[:0]
		for _, d := range pending {
			done, err := x.RunOnce(d)
			if done {
				if err != nil {
					errs[d.ID] = err
				}
				continue
			}
			next = append(next, d)
		}
		pending = next
	}
	return errs
}

// handleExit is the hypervisor's VMEXIT dispatcher. It runs with the
// domain's lock held (by RunOnce or a parallel runner) and performs VMCB
// I/O through the domain's controller port, so concurrent quanta of
// different domains dispatch without sharing anything.
func (x *Xen) handleExit(d *Domain) error {
	vmcb, err := cpu.LoadVMCB(d.ctl, d.VMCBPA())
	if err != nil {
		return err
	}
	if int(vmcb.ExitCode) < len(x.exitCounts) {
		x.exitCounts[vmcb.ExitCode].Add(1)
	}
	switch vmcb.ExitCode {
	case cpu.ExitVMMCALL:
		res, errno := x.hypercall(d, vmcb.Regs)
		vmcb.Regs[0] = res
		vmcb.Regs[1] = errno
	case cpu.ExitCPUID:
		// Only these four registers may change — the Section 5.1
		// policy example.
		copy(vmcb.Regs[:4], CPUIDModel[:])
	case cpu.ExitNPF:
		if err := x.handleNPF(d, vmcb.ExitInfo2, mmu.AccessType(vmcb.ExitInfo1)); err != nil {
			// Unresolvable (or policy-vetoed) fault: inject it into
			// the guest rather than killing the platform. Either way it
			// is a security-relevant decision worth a forensic record.
			if h := x.M.Ctl.Telem; h.Auditing() {
				h.Audit("npf-unresolved", uint32(d.ID), err.Error())
			}
			d.pendingFault = true
		}
	case cpu.ExitHLT:
		// Idle: nothing to do in the synchronous model.
	default:
		return fmt.Errorf("xen: unhandled exit %v", vmcb.ExitCode)
	}
	return cpu.StoreVMCB(d.ctl, d.VMCBPA(), vmcb)
}

// handleNPF backs an unmapped GPA with a fresh frame (lazy population) or
// upgrades permissions. Every NPT write goes through the interposer gate.
// When the domain's dirty log is armed, a write fault on an already-backed
// page is dirty-logging in action: the GFN is recorded before the W bit is
// restored.
func (x *Xen) handleNPF(d *Domain, gpa uint64, access mmu.AccessType) error {
	gfn := gpa >> hw.PageShift
	// The backing map is consulted and possibly grown under framesMu —
	// released before MapNPT, whose interposed PTE write takes the gate
	// lock (rank below frames).
	d.framesMu.Lock()
	if gfn >= uint64(len(d.Frames)) {
		d.framesMu.Unlock()
		return fmt.Errorf("xen: domain %d faulted beyond its memory at gpa %#x", d.ID, gpa)
	}
	pfn := d.Frames[gfn]
	fresh := pfn == 0
	if fresh {
		var err error
		pfn, err = x.M.Alloc.Alloc(UseGuest, d.ID)
		if err != nil {
			d.framesMu.Unlock()
			return err
		}
		d.Frames[gfn] = pfn
	}
	d.framesMu.Unlock()
	if access == mmu.Write && d.Dirty.Mark(gfn) {
		d.ctl.Telem.M.DirtyMarks.Inc()
	}
	pte := mmu.MakePTE(pfn, mmu.FlagP|mmu.FlagW|mmu.FlagU)
	if fresh && access != mmu.Write && d.Dirty.Enabled() {
		// A page populated by a read while dirty logging is armed must
		// stay write-protected, or its first write would go unlogged.
		pte = mmu.MakePTE(pfn, mmu.FlagP|mmu.FlagU)
	}
	if slot, err := x.NPTLeafSlot(d, gpa); err == nil {
		// Re-permitting an existing mapping (the dirty-logging W restore)
		// must keep the leaf's other attributes — the C-bit under
		// fidelius-enc in particular.
		if cur, err := x.readPTE(d, slot); err == nil && cur.Present() && cur.PFN() == pfn {
			pte = cur.WithFlags(mmu.FlagW)
		}
	}
	return x.MapNPT(d, gpa&^uint64(hw.PageSize-1), pte)
}

// Dom returns a domain by ID.
func (x *Xen) Dom(id DomID) (*Domain, bool) {
	x.domsMu.RLock()
	d, ok := x.Doms[id]
	x.domsMu.RUnlock()
	return d, ok
}

// DomByVMCB returns the domain whose VMCB lives at the given physical
// address.
func (x *Xen) DomByVMCB(pa hw.PhysAddr) (*Domain, bool) {
	x.domsMu.RLock()
	d, ok := x.vmcbToDom[pa]
	x.domsMu.RUnlock()
	return d, ok
}

// ConsoleLog returns everything a domain has written through the console
// hypercall. The registry lock is released before the domain lock is
// taken (doms ranks above domain), so the lookup and the copy are two
// steps.
func (x *Xen) ConsoleLog(id DomID) []byte {
	d, ok := x.Dom(id)
	if !ok {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte{}, d.console...)
}

// DomainCycles reports the simulated cycles charged to a domain's quanta
// so far — the per-domain successor of the old global cycle-account map.
func (x *Xen) DomainCycles(id DomID) uint64 {
	d, ok := x.Dom(id)
	if !ok {
		return 0
	}
	return d.cycles.Load()
}

// ExitCount reports how many VMEXITs with the given reason the
// hypervisor has dispatched.
func (x *Xen) ExitCount(r cpu.ExitReason) uint64 {
	if int(r) >= len(x.exitCounts) {
		return 0
	}
	return x.exitCounts[r].Load()
}
