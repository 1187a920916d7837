package mmu

import (
	"encoding/binary"
	"fmt"

	"fidelius/internal/hw"
	"fidelius/internal/telemetry"
)

// Nested performs the two-dimensional translation of a guest: guest
// virtual address → (guest page tables, themselves in guest memory and
// addressed by GPA through the NPT) → guest physical address → (nested
// page table) → host physical address.
//
// Guest is the guest's own page-table space expressed over GPAs; NPT maps
// GPA→HPA. GuestAccess picks the key of every access the walk makes.
type Nested struct {
	Ctl *hw.Controller
	// GuestRoot is the GPA of the guest's top-level page table (CR3).
	GuestRoot uint64
	// NPT is the nested page table (plaintext host memory).
	NPT *Space
	// ASID is the guest's SEV key slot; hw.HostASID for a guest without
	// SEV, which has no key of its own.
	ASID hw.ASID
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

// gpaToHPA translates a GPA through the NPT, raising an NPTViolation on
// failure.
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
	hpa, npte, err := n.gpaToHPA(tableGPA+uint64(idx*8), Read)
	if err != nil {
		return 0, err
	}
	var b [8]byte
	if err := n.Ctl.Read(GuestAccess(hpa, n.ASID, true, npte), b[:]); err != nil {
		return 0, err
	}
	return PTE(binary.LittleEndian.Uint64(b[:])), nil
}

// NestedTranslation is the outcome of a full two-dimensional walk.
type NestedTranslation struct {
	GPA uint64 // guest physical page base
	// Access reaches the host physical page base with the key GuestAccess
	// picked for it.
	Access   hw.Access
	GuestPTE PTE
	NPTE     PTE
}

func (n *Nested) hub() *telemetry.Hub {
	if n.Ctl == nil {
		return nil
	}
	return n.Ctl.Telem
}

// Translate resolves a guest virtual address with permission checks in both
// dimensions. Guest-dimension faults return *PageFault (delivered to the
// guest kernel); NPT-dimension faults return *NPTViolation (delivered to
// the hypervisor as an NPF VMEXIT).
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
	if err := checkLeaf(gva, leaf, access, true, user); err != nil {
		return NestedTranslation{}, err
	}
	gpa := uint64(leaf.PFN().Addr())
	hpa, npte, err := n.gpaToHPA(gpa, access)
	if err != nil {
		return NestedTranslation{}, err
	}
	return NestedTranslation{
		GPA:      gpa,
		Access:   GuestAccess(hpa, n.ASID, leaf.Encrypted(), npte),
		GuestPTE: leaf,
		NPTE:     npte,
	}, nil
}

// GuestAccess is the C-bit rule for every access a guest makes: it picks
// the key the memory controller uses to reach pa. asid is the guest's SEV
// key slot, hw.HostASID for a guest without SEV. private is the guest's
// own C-bit: always set for its page-table walks and for its accesses
// before paging, and the guest leaf's C-bit after. npte is the NPT leaf
// that maps the page.
//
// An SEV guest's private access uses the guest key: its page tables are
// always private. Any other access — every access of a guest without SEV,
// which has no key of its own — uses the host (SME) key when the NPT
// leaf has the C-bit, the Fidelius-enc method of Section 7.1, and is
// plaintext otherwise.
func GuestAccess(pa hw.PhysAddr, asid hw.ASID, private bool, npte PTE) hw.Access {
	switch {
	case private && asid != hw.HostASID:
		return hw.Access{PA: pa, Encrypted: true, ASID: asid}
	case npte.Encrypted():
		return hw.Access{PA: pa, Encrypted: true, ASID: hw.HostASID}
	}
	return hw.Access{PA: pa}
}
