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
)

// DomID identifies a domain. Dom0 (the management VM / driver domain) is 0.
type DomID uint16

// Dom0 is the management domain's ID.
const Dom0 DomID = 0

// StartInfoSize is the size of the marshalled start-info record.
const StartInfoSize = 72

// StartInfo is the boot-parameter page written once during domain build —
// the target of the paper's write-once policy (Section 5.3).
type StartInfo struct {
	DomID       DomID
	MemPages    uint64
	RingGFN     uint64 // PV block ring page (guest frame number)
	DataGFN     uint64 // first PV block data page
	DataLen     uint64 // number of data pages
	Port        uint32 // event channel port for block I/O
	ServeGFN    uint64 // first serve-ring page (0 = no serving device)
	ServePort   uint32 // event channel doorbell port for the serve ring
	ServeFrames uint64 // serve-ring frames per direction (set with ServeGFN)
}

// Marshal encodes the start info.
func (si *StartInfo) Marshal() []byte {
	b := make([]byte, StartInfoSize)
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
	}
	put(0, uint64(si.DomID))
	put(8, si.MemPages)
	put(16, si.RingGFN)
	put(24, si.DataGFN)
	put(32, si.DataLen)
	put(40, uint64(si.Port))
	put(48, si.ServeGFN)
	put(56, uint64(si.ServePort))
	put(64, si.ServeFrames)
	return b
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

// Domain is one guest VM.
type Domain struct {
	ID       DomID
	Name     string
	MemPages int

	// mu is the domain's own lock (lock rank: domain), held by whichever
	// scheduler owns the current quantum for its whole duration. It
	// guards the domain's VMCB dispatch state, interposer seam, NPT
	// mutations, dirty log and console. Shared-structure locks are
	// always acquired inside it, never the other way around.
	mu lockrank.Mutex

	// framesMu (lock rank: frames) guards the Frames backing map. It is
	// separate from mu because foreign quanta read it on grant map
	// (GPAFrame) while the owner's quantum may be populating pages.
	framesMu lockrank.RWMutex

	// ctl is the controller port this domain's host-side work drives:
	// the machine's root controller under serial scheduling, the
	// runner's per-core view while a parallel runner owns the domain.
	// Cycle costs of exit dispatch thus land on the quantum that caused
	// them in both modes.
	ctl *hw.Controller

	// cycles accumulates the simulated cycles this domain's quanta have
	// consumed (read via Xen.DomainCycles).
	cycles atomic.Uint64

	// console buffers HCConsoleIO output (under mu).
	console []byte

	// NPT is the nested page table mapping GPA to HPA.
	NPT *mmu.Space
	// NPTPages tracks all NPT table pages for protection registration.
	NPTPages []hw.PFN

	// VMCBPFN holds the plaintext VMCB page.
	VMCBPFN hw.PFN

	// SEV state.
	SEV    bool
	ASID   hw.ASID
	Handle sev.Handle

	// Frames maps guest frame number to host frame (0 = unbacked).
	Frames []hw.PFN

	// Dirty is the domain's dirty-page log, armed by StartDirtyLog during
	// pre-copy live migration.
	Dirty *mmu.DirtyLog

	// Grant is this domain's grant table.
	Grant *GrantTable

	// StartInfoPFN is the write-once boot-parameter page.
	StartInfoPFN hw.PFN
	Info         StartInfo

	vcpu *VCPU
	Dead bool
	// pendingFault injects a failure into the guest's next resume when
	// an NPF could not be resolved.
	pendingFault bool
	// NPTGen counts NPT mutations; guest-side translation caches flush
	// when it changes (the host's INVLPGA on map changes).
	NPTGen uint64
}

// VMCBPA returns the physical address of the domain's VMCB.
func (d *Domain) VMCBPA() hw.PhysAddr { return d.VMCBPFN.Addr() }

// GPAFrame returns the host frame backing a guest frame, or false if
// unbacked. Safe to call from foreign quanta (grant map) and from under
// the gate lock: frames ranks below both.
func (d *Domain) GPAFrame(gfn uint64) (hw.PFN, bool) {
	d.framesMu.RLock()
	defer d.framesMu.RUnlock()
	if gfn >= uint64(len(d.Frames)) || d.Frames[gfn] == 0 {
		return 0, false
	}
	return d.Frames[gfn], true
}

// DomainConfig parameterises domain creation.
type DomainConfig struct {
	Name     string
	MemPages int
	// SEV enables memory encryption for the guest.
	SEV bool
	// ExternalSEV means the caller (Fidelius) manages the firmware
	// contexts; CreateDomain will not issue LAUNCH/ACTIVATE itself.
	ExternalSEV bool
	// Lazy disables the eager batched NPT population of Section 4.3.4;
	// guest frames are then allocated on NPT violations at runtime.
	Lazy bool
}

// CreateDomain builds a guest: VMCB, grant table, NPT (eagerly populated
// unless Lazy), guest memory, start info, and — unless ExternalSEV — the
// SEV firmware context, activated under a fresh ASID.
func (x *Xen) CreateDomain(cfg DomainConfig) (*Domain, error) {
	if cfg.MemPages <= 0 {
		return nil, fmt.Errorf("xen: domain needs memory")
	}
	d := &Domain{
		Name:     cfg.Name,
		MemPages: cfg.MemPages,
		SEV:      cfg.SEV,
		Frames:   make([]hw.PFN, cfg.MemPages),
		Dirty:    mmu.NewDirtyLog(cfg.MemPages),
		ctl:      x.M.Ctl,
	}
	d.mu.Init(lockrank.RankDomain, &x.M.Waits.Domain)
	d.framesMu.Init(lockrank.RankFrames, &x.M.Waits.Frames)
	x.domsMu.Lock()
	d.ID = x.nextDom
	x.nextDom++
	x.domsMu.Unlock()
	if err := x.buildDomain(d, cfg); err != nil {
		// A half-built domain unwinds through the ordinary teardown,
		// which skips every piece the build did not reach.
		return nil, errors.Join(err, x.DestroyDomain(d))
	}

	// Register the domain with the machine's telemetry hub so events and
	// per-VM metrics carry its name and ASID mapping.
	tel := x.M.Ctl.Telem
	tel.NameVM(uint32(d.ID), d.Name)
	if d.ASID != 0 {
		tel.MapASID(uint32(d.ASID), uint32(d.ID))
	}
	if tel != nil {
		tel.Reg.RegisterFunc("cycles.vm", func() uint64 { return d.cycles.Load() },
			"vm", fmt.Sprint(uint32(d.ID)))
	}

	x.domsMu.Lock()
	x.Doms[d.ID] = d
	x.vmcbToDom[d.VMCBPA()] = d
	x.domsMu.Unlock()
	return d, nil
}

// buildDomain takes a new domain's frames, ASID and (unless ExternalSEV)
// firmware context. It records each piece on d as soon as it holds it,
// so DestroyDomain can give back whatever a failed build took.
func (x *Xen) buildDomain(d *Domain, cfg DomainConfig) error {
	vmcb, err := x.M.Alloc.Alloc(UseVMCB, d.ID)
	if err != nil {
		return err
	}
	d.VMCBPFN = vmcb
	if err := cpu.StoreVMCB(x.M.Ctl, d.VMCBPA(), &cpu.VMCB{GuestASID: uint32(d.ASID), SEVEnabled: d.SEV}); err != nil {
		return err
	}

	d.Grant, err = newGrantTable(x.M.Ctl, x.M.Alloc, d.ID)
	if err != nil {
		return err
	}

	// NPT root.
	root, err := x.newPTPage(d)
	if err != nil {
		return err
	}
	d.NPT = &mmu.Space{Ctl: x.M.Ctl, Root: root}

	// Guest memory: allocated up front; NPT populated eagerly in a
	// batched manner during boot (Section 4.3.4) unless Lazy.
	for gfn := 0; gfn < cfg.MemPages; gfn++ {
		if cfg.Lazy {
			continue
		}
		pfn, err := x.M.Alloc.Alloc(UseGuest, d.ID)
		if err != nil {
			return err
		}
		d.Frames[gfn] = pfn
		if err := x.MapNPT(d, uint64(gfn)<<hw.PageShift, mmu.MakePTE(pfn, mmu.FlagP|mmu.FlagW|mmu.FlagU)); err != nil {
			return err
		}
	}

	// SEV context. The ASID comes from the pool, which recycles retired
	// ASIDs behind a DF_FLUSH once the hardware limit is reached.
	if cfg.SEV {
		asid, err := x.ASIDs.Alloc()
		if err != nil {
			return err
		}
		d.ASID = asid
		if !cfg.ExternalSEV {
			h, err := x.M.FW.LaunchStart(0)
			if err != nil {
				return err
			}
			d.Handle = h
			if err := x.M.FW.LaunchFinish(h); err != nil {
				return err
			}
			if err := x.M.FW.Activate(h, d.ASID); err != nil {
				return err
			}
		}
		if err := x.updateVMCB(d, func(v *cpu.VMCB) {
			v.GuestASID = uint32(d.ASID)
			v.SEVEnabled = true
			v.NPTRoot = uint64(d.NPT.Root.Addr())
		}); err != nil {
			return err
		}
	} else {
		if err := x.updateVMCB(d, func(v *cpu.VMCB) {
			v.NPTRoot = uint64(d.NPT.Root.Addr())
		}); err != nil {
			return err
		}
	}

	// Start-info page: allocated now, written exactly once by
	// WriteStartInfo after the toolstack finishes attaching devices.
	si, err := x.M.Alloc.Alloc(UseXenData, d.ID)
	if err != nil {
		return err
	}
	d.StartInfoPFN = si
	if err := x.Interpose.RegisterWriteOnce(si); err != nil {
		return err
	}
	d.Info = StartInfo{DomID: d.ID, MemPages: uint64(cfg.MemPages)}
	return nil
}

// WriteStartInfo publishes the domain's boot parameters to its start-info
// page. The page is under the write-once policy: the first write succeeds,
// any later write is a policy violation under Fidelius. The write runs on
// the boot CPU and may fault into the trusted context, so it holds the
// gate lock.
func (x *Xen) WriteStartInfo(d *Domain) error {
	x.M.Host.Lock()
	defer x.M.Host.Unlock()
	return x.M.CPU.WriteVA(uint64(d.StartInfoPFN.Addr()), d.Info.Marshal())
}

// newPTPage allocates, zeroes and registers one NPT table page.
func (x *Xen) newPTPage(d *Domain) (hw.PFN, error) {
	pfn, err := x.M.Alloc.Alloc(UseNPT, d.ID)
	if err != nil {
		return 0, err
	}
	var zero [hw.PageSize]byte
	if err := x.M.Ctl.Mem.WriteRaw(pfn.Addr(), zero[:]); err != nil {
		return 0, err
	}
	x.M.Ctl.Cache.Invalidate(pfn.Addr(), hw.PageSize)
	d.NPTPages = append(d.NPTPages, pfn)
	if err := x.Interpose.NewPTPage(d, pfn); err != nil {
		return 0, err
	}
	return pfn, nil
}

// readPTE reads a page-table entry from physical memory through the
// domain's controller port (reads of write-protected structures are
// always permitted).
func (x *Xen) readPTE(d *Domain, slot hw.PhysAddr) (mmu.PTE, error) {
	var b [8]byte
	if err := d.ctl.Read(hw.Access{PA: slot}, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return mmu.PTE(v), nil
}

// MapNPT installs gpa→pte in d's NPT, allocating intermediate table pages
// as needed. Every entry write goes through the interposer (Fidelius's
// type 1 gate); table-page allocations are registered so they can be
// write-protected.
func (x *Xen) MapNPT(d *Domain, gpa uint64, pte mmu.PTE) error {
	table := d.NPT.Root
	for level := mmu.Levels - 1; level > 0; level-- {
		slot := table.Addr() + hw.PhysAddr(mmu.Index(gpa, level)*8)
		entry, err := x.readPTE(d, slot)
		if err != nil {
			return err
		}
		if !entry.Present() {
			pfn, err := x.newPTPage(d)
			if err != nil {
				return err
			}
			entry = mmu.MakePTE(pfn, mmu.FlagP|mmu.FlagW|mmu.FlagU)
			if err := x.Interpose.WritePTE(d, slot, entry); err != nil {
				return err
			}
		}
		table = entry.PFN()
	}
	slot := table.Addr() + hw.PhysAddr(mmu.Index(gpa, 0)*8)
	if err := x.Interpose.WritePTE(d, slot, pte); err != nil {
		return err
	}
	d.NPTGen++
	return nil
}

// NPTLeafSlot returns the physical address of the leaf NPT entry for gpa,
// failing if intermediate levels are missing.
func (x *Xen) NPTLeafSlot(d *Domain, gpa uint64) (hw.PhysAddr, error) {
	table := d.NPT.Root
	for level := mmu.Levels - 1; level > 0; level-- {
		slot := table.Addr() + hw.PhysAddr(mmu.Index(gpa, level)*8)
		entry, err := x.readPTE(d, slot)
		if err != nil {
			return 0, err
		}
		if !entry.Present() {
			return 0, fmt.Errorf("xen: gpa %#x not mapped at level %d", gpa, level)
		}
		table = entry.PFN()
	}
	return table.Addr() + hw.PhysAddr(mmu.Index(gpa, 0)*8), nil
}

// updateVMCB loads, mutates and stores the domain's VMCB.
func (x *Xen) updateVMCB(d *Domain, f func(*cpu.VMCB)) error {
	v, err := cpu.LoadVMCB(d.ctl, d.VMCBPA())
	if err != nil {
		return err
	}
	f(v)
	return cpu.StoreVMCB(d.ctl, d.VMCBPA(), v)
}

// DestroyDomain tears a guest down: SEV deactivate/decommission of the
// firmware context CreateDomain started (an ExternalSEV owner erases its
// own), frame reclamation, ASID retirement into the pool's dirty list,
// and interposer notification so Fidelius can scrub PIT/GIT state
// (Section 4.3.8). It also unwinds a domain whose build failed part way.
// It holds the domain lock: a teardown racing a quantum waits for the
// quantum to finish.
func (x *Xen) DestroyDomain(d *Domain) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Dead {
		return nil
	}
	d.Dead = true
	// A guest parked in exit is unwound first, before its frames go: its
	// coroutine would otherwise keep the domain and the machine alive.
	if v := d.vcpu; v != nil && !v.halted {
		v.stop()
		v.out = exitEvent{reason: cpu.ExitShutdown, done: true,
			err: fmt.Errorf("xen: domain %d destroyed", d.ID)}
	}
	if d.Handle != 0 {
		if err := x.M.FW.Deactivate(d.Handle); err != nil {
			return err
		}
		if err := x.M.FW.Decommission(d.Handle); err != nil {
			return err
		}
	}
	// The ASID is now retired-but-dirty; the pool refuses to hand it out
	// again until a DF_FLUSH has scrubbed the fabric.
	x.ASIDs.Retire(d.ASID)
	if err := x.Interpose.DomainDestroyed(d); err != nil {
		return err
	}
	d.framesMu.Lock()
	for _, pfn := range d.Frames {
		if pfn != 0 {
			x.M.Alloc.Free(pfn)
		}
	}
	d.framesMu.Unlock()
	for _, pfn := range d.NPTPages {
		x.M.Alloc.Free(pfn)
	}
	if d.VMCBPFN != 0 {
		x.M.Alloc.Free(d.VMCBPFN)
	}
	if d.Grant != nil {
		x.M.Alloc.Free(d.Grant.PagePFN)
	}
	if d.StartInfoPFN != 0 {
		x.M.Alloc.Free(d.StartInfoPFN)
	}
	// Drop the per-VM cycle reader so lifecycle churn does not accumulate
	// registry entries (or keep dead domains reachable through them).
	x.M.Ctl.Telem.Reg.UnregisterFunc("cycles.vm", "vm", fmt.Sprint(uint32(d.ID)))
	x.domsMu.Lock()
	delete(x.Doms, d.ID)
	delete(x.vmcbToDom, d.VMCBPA())
	x.domsMu.Unlock()
	return nil
}
