package mmu

import (
	"fmt"

	"fidelius/internal/hw"
	"fidelius/internal/telemetry"
)

// Nested performs the two-dimensional translation of an SEV guest: guest
// virtual address → (guest page tables, themselves in encrypted guest
// memory, themselves addressed by GPA through the NPT) → guest physical
// address → (nested page table) → host physical address.
//
// Guest is the guest's own page-table space expressed over GPAs; NPT maps
// GPA→HPA. The paper's C-bit priority rule is applied at the leaf: a C-bit
// in the guest page table selects the guest's key; otherwise a C-bit in the
// NPT selects the host (SME) key — that is how Fidelius-enc simulates SEV
// with SME by setting C-bits in the nested tables (Section 7.1).
type Nested struct {
	Ctl *hw.Controller
	// GuestRoot is the GPA of the guest's top-level page table (CR3).
	GuestRoot uint64
	// NPT is the nested page table (plaintext host memory).
	NPT *Space
	// ASID tags the guest's encrypted accesses.
	ASID hw.ASID
	// GuestPTEncrypted reports whether the guest keeps its page tables in
	// encrypted memory (the SEV default).
	GuestPTEncrypted bool
	// Dirty, when armed, logs the GPA of every write that faults on a
	// write-protected NPT leaf — the dirty-page tracking live migration
	// drives by clearing W bits on the nested table.
	Dirty *DirtyLog
}

// StartDirtyLog arms the walker's dirty log, allocating it on first use
// for a guest of the given page count.
func (n *Nested) StartDirtyLog(pages int) {
	if n.Dirty == nil {
		n.Dirty = NewDirtyLog(pages)
	}
	n.Dirty.Start()
}

// StopDirtyLog disarms the walker's dirty log.
func (n *Nested) StopDirtyLog() { n.Dirty.Stop() }

// CollectDirty drains the walker's dirty log, returning the GFNs written
// (and faulted) since the previous collection.
func (n *Nested) CollectDirty() []uint64 { return n.Dirty.Collect() }

// npfAccess translates a guest-table GPA through the NPT, raising an
// NPTViolation on failure.
func (n *Nested) gpaToHPA(gpa uint64, access AccessType) (hw.PhysAddr, PTE, error) {
	tr, err := n.NPT.Translate(gpa, access, true, false)
	if err != nil {
		if pf, ok := err.(*PageFault); ok {
			if access == Write && pf.Reason == WriteProtected && n.Dirty.MarkGPA(gpa) {
				if h := n.hub(); h != nil {
					h.M.DirtyMarks.Inc()
				}
			}
			if h := n.hub(); h != nil {
				if h.Tracing() {
					h.Emit(telemetry.KindNPTViolation,
						h.VMForASID(uint32(n.ASID)), uint32(n.ASID),
						0, gpa, uint64(access))
				}
				// A write fault on a present mapping with no dirty log
				// armed is not lazy population and not dirty tracking:
				// it is the fault signature of a hypervisor-side remap
				// or permission downgrade (the SEVered probe pattern),
				// so it earns a forensic record.
				if h.Auditing() && pf.Reason == WriteProtected && !n.Dirty.Enabled() {
					h.Audit("npt-wp-fault", h.VMForASID(uint32(n.ASID)),
						fmt.Sprintf("write to write-protected gpa %#x with dirty logging off", gpa))
				}
			}
			return 0, 0, &NPTViolation{GPA: gpa, Access: access, Reason: pf.Reason}
		}
		return 0, 0, err
	}
	return tr.HPA + hw.PhysAddr(gpa&(hw.PageSize-1)), tr.PTE, nil
}

func (n *Nested) readGuestEntry(tableGPA uint64, idx int) (PTE, error) {
	hpa, _, err := n.gpaToHPA(tableGPA+uint64(idx*8), Read)
	if err != nil {
		return 0, err
	}
	var b [8]byte
	a := hw.Access{PA: hpa, Encrypted: n.GuestPTEncrypted, ASID: n.ASID}
	if err := n.Ctl.Read(a, b[:]); err != nil {
		return 0, err
	}
	return PTE(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56), nil
}

// NestedTranslation is the outcome of a full two-dimensional walk.
type NestedTranslation struct {
	GPA uint64      // guest physical page base
	HPA hw.PhysAddr // host physical page base
	// Encrypted and ASID are the effective memory-controller attributes
	// after applying the C-bit priority rule.
	Encrypted bool
	ASID      hw.ASID
	GuestPTE  PTE
	NPTE      PTE
}

// Translate resolves a guest virtual address with permission checks in both
// dimensions. Guest-dimension faults return *PageFault (delivered to the
// guest kernel); NPT-dimension faults return *NPTViolation (delivered to
// the hypervisor as an NPF VMEXIT).
func (n *Nested) hub() *telemetry.Hub {
	if n.Ctl == nil {
		return nil
	}
	return n.Ctl.Telem
}

func (n *Nested) Translate(gva uint64, access AccessType, user bool) (NestedTranslation, error) {
	if h := n.hub(); h != nil {
		h.M.NPTWalks.Inc()
	}
	if !CanonicalVA(gva) {
		return NestedTranslation{}, &PageFault{VA: gva, Access: access, Reason: NonCanonical}
	}
	tableGPA := n.GuestRoot
	var leaf PTE
	for level := Levels - 1; level >= 0; level-- {
		idx := Index(gva, level)
		pte, err := n.readGuestEntry(tableGPA, idx)
		if err != nil {
			return NestedTranslation{}, err
		}
		if !pte.Present() {
			return NestedTranslation{}, &PageFault{VA: gva, Access: access, Reason: NotPresent, Level: level}
		}
		if level == 0 {
			leaf = pte
			break
		}
		tableGPA = uint64(pte.PFN().Addr())
	}
	if user && !leaf.User() {
		return NestedTranslation{}, &PageFault{VA: gva, Access: access, Reason: UserSupervisor}
	}
	switch access {
	case Write:
		if !leaf.Writable() {
			return NestedTranslation{}, &PageFault{VA: gva, Access: access, Reason: WriteProtected}
		}
	case Execute:
		if leaf.NoExec() {
			return NestedTranslation{}, &PageFault{VA: gva, Access: access, Reason: NXViolation}
		}
	}
	gpa := uint64(leaf.PFN().Addr())
	hpa, npte, err := n.gpaToHPA(gpa, access)
	if err != nil {
		return NestedTranslation{}, err
	}
	out := NestedTranslation{
		GPA:      gpa,
		HPA:      hpa,
		GuestPTE: leaf,
		NPTE:     npte,
	}
	// C-bit priority: guest PT first, then NPT (SME via hypervisor).
	switch {
	case leaf.Encrypted():
		out.Encrypted, out.ASID = true, n.ASID
	case npte.Encrypted():
		out.Encrypted, out.ASID = true, hw.HostASID
	}
	return out, nil
}
