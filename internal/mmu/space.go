package mmu

import (
	"encoding/binary"
	"fmt"

	"fidelius/internal/hw"
)

// FrameAllocator hands out free physical frames for page-table pages.
type FrameAllocator interface {
	AllocFrame() (hw.PFN, error)
}

// Space is one page-table hierarchy: either a host page table (rooted at
// host CR3), a guest page table (rooted at the guest's CR3, stored in
// encrypted guest memory), or a nested page table (GPA→HPA).
//
// Table pages are read and written through the memory controller as
// plaintext: the walker models host and nested tables, which live in
// unencrypted memory.
type Space struct {
	Ctl  *hw.Controller
	Root hw.PFN
}

func (s *Space) readEntry(table hw.PFN, idx int) (PTE, error) {
	var b [8]byte
	a := hw.Access{PA: table.Addr() + hw.PhysAddr(idx*8)}
	if err := s.Ctl.Read(a, b[:]); err != nil {
		return 0, err
	}
	return PTE(binary.LittleEndian.Uint64(b[:])), nil
}

func (s *Space) writeEntry(table hw.PFN, idx int, pte PTE) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(pte))
	a := hw.Access{PA: table.Addr() + hw.PhysAddr(idx*8)}
	return s.Ctl.Write(a, b[:])
}

// Walk resolves va to its leaf PTE without permission checks. It returns
// the leaf entry, the frame holding it and its index, so callers can
// inspect or modify the entry in place.
func (s *Space) Walk(va uint64) (leaf PTE, table hw.PFN, idx int, err error) {
	if !CanonicalVA(va) {
		return 0, 0, 0, &PageFault{VA: va, Reason: NonCanonical, Level: Levels - 1}
	}
	table = s.Root
	for level := Levels - 1; level > 0; level-- {
		idx = Index(va, level)
		pte, err := s.readEntry(table, idx)
		if err != nil {
			return 0, 0, 0, err
		}
		if !pte.Present() {
			return 0, 0, 0, &PageFault{VA: va, Reason: NotPresent, Level: level}
		}
		table = pte.PFN()
	}
	idx = Index(va, 0)
	leaf, err = s.readEntry(table, idx)
	if err != nil {
		return 0, 0, 0, err
	}
	return leaf, table, idx, nil
}

// Translation is the outcome of a successful permission-checked walk.
type Translation struct {
	HPA       hw.PhysAddr // physical address of the page base
	PTE       PTE         // leaf entry
	Encrypted bool        // effective C-bit of the leaf
}

// Translate walks va and enforces permissions. wp is the current CR0.WP
// value: when clear, supervisor writes ignore the W bit — which is exactly
// the machinery Fidelius's type 1 gate exploits. user selects user-mode
// permission checks.
func (s *Space) Translate(va uint64, access AccessType, wp, user bool) (Translation, error) {
	leaf, _, _, err := s.Walk(va)
	if err != nil {
		return Translation{}, err
	}
	if err := checkLeaf(va, leaf, access, wp, user); err != nil {
		return Translation{}, err
	}
	return Translation{
		HPA:       leaf.PFN().Addr(),
		PTE:       leaf,
		Encrypted: leaf.Encrypted(),
	}, nil
}

// checkLeaf enforces a leaf entry's permissions for access, the one check
// both the host walk and the guest dimension of the nested walk make. wp
// is CR0.WP: when clear, supervisor writes ignore the W bit.
func checkLeaf(va uint64, leaf PTE, access AccessType, wp, user bool) error {
	var reason FaultReason
	switch {
	case !leaf.Present():
		reason = NotPresent
	case user && !leaf.User():
		reason = UserSupervisor
	case access == Write && !leaf.Writable() && (wp || user):
		reason = WriteProtected
	case access == Execute && leaf.NoExec():
		reason = NXViolation
	default:
		return nil
	}
	return &PageFault{VA: va, Access: access, Reason: reason}
}

// Map installs a leaf mapping for va, allocating intermediate table pages
// from alloc as needed. Intermediate entries are created present+writable.
// This is the raw construction path used by trusted setup code (boot, and
// Fidelius itself); the hypervisor's runtime PTE updates instead go through
// CPU stores so that write protection applies.
func (s *Space) Map(alloc FrameAllocator, va uint64, pte PTE) error {
	if !CanonicalVA(va) {
		return fmt.Errorf("mmu: map non-canonical va %#x", va)
	}
	table := s.Root
	for level := Levels - 1; level > 0; level-- {
		idx := Index(va, level)
		entry, err := s.readEntry(table, idx)
		if err != nil {
			return err
		}
		if !entry.Present() {
			frame, err := alloc.AllocFrame()
			if err != nil {
				return fmt.Errorf("mmu: allocating level-%d table: %w", level-1, err)
			}
			if err := s.zeroFrame(frame); err != nil {
				return err
			}
			entry = MakePTE(frame, FlagP|FlagW|FlagU)
			if err := s.writeEntry(table, idx, entry); err != nil {
				return err
			}
		}
		table = entry.PFN()
	}
	return s.writeEntry(table, Index(va, 0), pte)
}

// Unmap clears the leaf mapping for va. Missing mappings are not an error.
func (s *Space) Unmap(va uint64) error {
	_, table, idx, err := s.Walk(va)
	if err != nil {
		if _, ok := err.(*PageFault); ok {
			return nil
		}
		return err
	}
	return s.writeEntry(table, idx, 0)
}

// SetLeaf overwrites the leaf entry for va, which must already have a full
// walk path.
func (s *Space) SetLeaf(va uint64, pte PTE) error {
	_, table, idx, err := s.Walk(va)
	if err != nil {
		return err
	}
	return s.writeEntry(table, idx, pte)
}

// Leaf returns the leaf entry for va (zero if the walk fails short).
func (s *Space) Leaf(va uint64) (PTE, error) {
	leaf, _, _, err := s.Walk(va)
	if err != nil {
		if _, ok := err.(*PageFault); ok {
			return 0, nil
		}
		return 0, err
	}
	return leaf, nil
}

// LeafSlot returns the physical address of the PTE slot holding va's leaf
// entry. Fidelius uses this to locate the page-table-pages it must write
// protect.
func (s *Space) LeafSlot(va uint64) (hw.PhysAddr, error) {
	_, table, idx, err := s.Walk(va)
	if err != nil {
		return 0, err
	}
	return table.Addr() + hw.PhysAddr(idx*8), nil
}

// TablePages lists every page-table page reachable from the root,
// root first. Fidelius write-protects exactly this set.
func (s *Space) TablePages() ([]hw.PFN, error) {
	var out []hw.PFN
	seen := map[hw.PFN]bool{}
	var rec func(table hw.PFN, level int) error
	rec = func(table hw.PFN, level int) error {
		if seen[table] {
			return nil
		}
		seen[table] = true
		out = append(out, table)
		if level == 0 {
			return nil
		}
		for i := 0; i < EntriesPerPage; i++ {
			pte, err := s.readEntry(table, i)
			if err != nil {
				return err
			}
			if pte.Present() {
				if err := rec(pte.PFN(), level-1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := rec(s.Root, Levels-1); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *Space) zeroFrame(pfn hw.PFN) error {
	var zero [hw.PageSize]byte
	return s.Ctl.Write(hw.Access{PA: pfn.Addr()}, zero[:])
}
