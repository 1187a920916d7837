package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fidelius/internal/hw"
	"fidelius/internal/xen"
)

// GITEntrySize is the marshalled size of one grant-information entry.
const GITEntrySize = 32

// GITEntriesPerPage is the number of entries per GIT page.
const GITEntriesPerPage = hw.PageSize / GITEntrySize

// GITEntry is one grant-information record, created by the initiator's
// pre_sharing_op hypercall before any grant-table entry exists (Section
// 5.2): which domain shares which of its frames with whom, and with what
// permission. Fidelius later validates every grant-table and NPT update
// against these records.
type GITEntry struct {
	Valid     bool
	Initiator xen.DomID
	Target    xen.DomID
	ReadOnly  bool
	// GFNStart is the first shared frame in the initiator's space.
	GFNStart uint64
	// PFNStart is the corresponding first host frame, resolved when the
	// record is created.
	PFNStart hw.PFN
	Count    uint64
}

func (e GITEntry) marshal(b []byte) {
	le := binary.LittleEndian
	var flags uint16
	if e.Valid {
		flags |= 1
	}
	if e.ReadOnly {
		flags |= 2
	}
	le.PutUint16(b[0:], flags)
	le.PutUint16(b[2:], uint16(e.Initiator))
	le.PutUint16(b[4:], uint16(e.Target))
	le.PutUint64(b[8:], e.GFNStart)
	le.PutUint64(b[16:], uint64(e.PFNStart))
	le.PutUint64(b[24:], e.Count)
}

func unmarshalGITEntry(b []byte) GITEntry {
	le := binary.LittleEndian
	flags := le.Uint16(b[0:])
	return GITEntry{
		Valid:     flags&1 != 0,
		ReadOnly:  flags&2 != 0,
		Initiator: xen.DomID(le.Uint16(b[2:])),
		Target:    xen.DomID(le.Uint16(b[4:])),
		GFNStart:  le.Uint64(b[8:]),
		PFNStart:  hw.PFN(le.Uint64(b[16:])),
		Count:     le.Uint64(b[24:]),
	}
}

// CoversGFN reports whether the record covers an initiator frame.
func (e GITEntry) CoversGFN(gfn uint64) bool {
	return e.Valid && gfn >= e.GFNStart && gfn-e.GFNStart < e.Count
}

// ErrGITFull reports GIT exhaustion.
var ErrGITFull = errors.New("core: grant information table full")

// GIT is the grant information table, stored in a Fidelius-owned page
// mapped read-only to the hypervisor.
type GIT struct {
	ctl     *hw.Controller
	PagePFN hw.PFN
}

// NewGIT allocates and zeroes the GIT page.
func NewGIT(ctl *hw.Controller, alloc *xen.FrameAlloc) (*GIT, error) {
	pfn, err := alloc.Alloc(xen.UseFidelius, 0)
	if err != nil {
		return nil, err
	}
	var zero [hw.PageSize]byte
	if err := ctl.Mem.WriteRaw(pfn.Addr(), zero[:]); err != nil {
		return nil, err
	}
	ctl.Cache.Invalidate(pfn.Addr(), hw.PageSize)
	return &GIT{ctl: ctl, PagePFN: pfn}, nil
}

// Entry reads record i.
func (g *GIT) Entry(i int) (GITEntry, error) {
	if i < 0 || i >= GITEntriesPerPage {
		return GITEntry{}, fmt.Errorf("core: git index %d out of range", i)
	}
	var b [GITEntrySize]byte
	if err := g.ctl.Read(hw.Access{PA: g.PagePFN.Addr() + hw.PhysAddr(i*GITEntrySize)}, b[:]); err != nil {
		return GITEntry{}, err
	}
	return unmarshalGITEntry(b[:]), nil
}

// set writes record i.
func (g *GIT) set(i int, e GITEntry) error {
	var b [GITEntrySize]byte
	e.marshal(b[:])
	return g.ctl.Write(hw.Access{PA: g.PagePFN.Addr() + hw.PhysAddr(i*GITEntrySize)}, b[:])
}

// Add appends a record into the first free slot.
func (g *GIT) Add(e GITEntry) error {
	for i := 0; i < GITEntriesPerPage; i++ {
		cur, err := g.Entry(i)
		if err != nil {
			return err
		}
		if !cur.Valid {
			e.Valid = true
			return g.set(i, e)
		}
	}
	return ErrGITFull
}

// Find returns the first valid record matching pred.
func (g *GIT) Find(pred func(GITEntry) bool) (GITEntry, bool, error) {
	for i := 0; i < GITEntriesPerPage; i++ {
		e, err := g.Entry(i)
		if err != nil {
			return GITEntry{}, false, err
		}
		if e.Valid && pred(e) {
			return e, true, nil
		}
	}
	return GITEntry{}, false, nil
}

// RemoveFor invalidates every record involving the domain (teardown).
func (g *GIT) RemoveFor(dom xen.DomID) error {
	for i := 0; i < GITEntriesPerPage; i++ {
		e, err := g.Entry(i)
		if err != nil {
			return err
		}
		if e.Valid && (e.Initiator == dom || e.Target == dom) {
			if err := g.set(i, GITEntry{}); err != nil {
				return err
			}
		}
	}
	return nil
}
