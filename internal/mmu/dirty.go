package mmu

import "fidelius/internal/hw"

// DirtyLog is a per-domain dirty-page bitmap driven by write-protection
// faults: pre-copy live migration clears the W bit on every NPT leaf,
// and each faulting guest write logs its GFN here before the hypervisor
// restores the mapping. This mirrors how real NPT dirty logging works —
// the MMU cannot hook successful walks, only faults — so the log records
// exactly the set of pages written since the last collection.
//
// DirtyLog is not internally locked. The guest runs as a coroutine of the
// host (one iter.Pull per vCPU), so guest writes and host collection never
// overlap: collection only runs from host context while the vCPU is
// parked.
type DirtyLog struct {
	enabled bool
	pages   uint64
	bits    []uint64
}

// NewDirtyLog sizes a log for a guest of the given page count.
func NewDirtyLog(pages int) *DirtyLog {
	return &DirtyLog{pages: uint64(pages), bits: make([]uint64, (pages+63)/64)}
}

// Start arms the log. Marks while disarmed are dropped.
func (l *DirtyLog) Start() {
	if l != nil {
		l.enabled = true
	}
}

// Stop disarms the log without clearing accumulated bits.
func (l *DirtyLog) Stop() {
	if l != nil {
		l.enabled = false
	}
}

// Enabled reports whether the log is armed. Nil-safe.
func (l *DirtyLog) Enabled() bool { return l != nil && l.enabled }

// Mark records a faulting write to gfn. It reports whether the bit was
// newly set (false when disarmed, out of range, or already dirty).
func (l *DirtyLog) Mark(gfn uint64) bool {
	if l == nil || !l.enabled || gfn >= l.pages {
		return false
	}
	w, b := gfn/64, gfn%64
	if l.bits[w]&(1<<b) != 0 {
		return false
	}
	l.bits[w] |= 1 << b
	return true
}

// MarkGPA records a faulting write by guest physical address.
func (l *DirtyLog) MarkGPA(gpa uint64) bool { return l.Mark(gpa >> hw.PageShift) }

// Collect drains the log: it returns the dirty GFNs in ascending order
// and clears every bit, starting a fresh tracking round.
func (l *DirtyLog) Collect() []uint64 {
	if l == nil {
		return nil
	}
	var out []uint64
	for i, w := range l.bits {
		for w != 0 {
			b := uint64(0)
			for ; w&(1<<b) == 0; b++ {
			}
			out = append(out, uint64(i)*64+b)
			w &^= 1 << b
		}
		l.bits[i] = 0
	}
	return out
}
