package xen

import (
	"errors"
	"fmt"
	"sync/atomic"

	"fidelius/internal/hw"
	"fidelius/internal/lockrank"
)

// PageUse classifies what a physical frame is used for. Fidelius's page
// information table tracks the same classification (Section 5.2); the
// allocator is the ground truth it is initialised from.
type PageUse uint8

// Frame usages.
const (
	UseFree PageUse = iota
	UseReserved
	UseXenCode
	UseXenData
	UseXenPageTable
	UseNPT
	UseVMCB
	UseGrantTable
	UseGuest
	UseFidelius
	UseShared
)

func (u PageUse) String() string {
	switch u {
	case UseFree:
		return "free"
	case UseReserved:
		return "reserved"
	case UseXenCode:
		return "xen-code"
	case UseXenData:
		return "xen-data"
	case UseXenPageTable:
		return "xen-pt"
	case UseNPT:
		return "npt"
	case UseVMCB:
		return "vmcb"
	case UseGrantTable:
		return "grant-table"
	case UseGuest:
		return "guest"
	case UseFidelius:
		return "fidelius"
	case UseShared:
		return "shared"
	}
	return fmt.Sprintf("use(%d)", uint8(u))
}

// ErrNoMemory reports frame exhaustion.
var ErrNoMemory = errors.New("xen: out of physical frames")

// FrameInfo records the owner domain and usage of one physical frame.
type FrameInfo struct {
	Use   PageUse
	Owner DomID
}

// FrameAlloc is the hypervisor's physical frame allocator with per-frame
// ownership and usage accounting. Its internal mutex (lock rank: alloc)
// sits near the bottom of the lock order, so any path may allocate.
//
// Frames are handed out from a high-water mark: next is the lowest frame
// never handed out, and freed is a LIFO stack of frames returned by Free.
// Alloc pops freed first, then takes next. That is exactly the sequence a
// LIFO free list seeded with start, start+1, ... on top would hand out,
// without building that list at boot.
type FrameAlloc struct {
	mu     lockrank.Mutex
	frames []FrameInfo
	next   hw.PFN   // lowest frame never handed out
	freed  []hw.PFN // LIFO stack of frames returned by Free
}

// SetLockInfo ranks the allocator lock and wires its contention counter.
func (a *FrameAlloc) SetLockInfo(rank lockrank.Rank, waits *atomic.Uint64) {
	a.mu.Init(rank, waits)
}

// NewFrameAlloc covers frames [start, total). Frames below start are
// marked reserved.
func NewFrameAlloc(start, total int) *FrameAlloc {
	a := &FrameAlloc{frames: make([]FrameInfo, total), next: hw.PFN(start)}
	for i := 0; i < start; i++ {
		a.frames[i].Use = UseReserved
	}
	return a
}

// Alloc takes a free frame and tags it.
func (a *FrameAlloc) Alloc(use PageUse, owner DomID) (hw.PFN, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var pfn hw.PFN
	switch {
	case len(a.freed) > 0:
		pfn = a.freed[len(a.freed)-1]
		a.freed = a.freed[:len(a.freed)-1]
	case int(a.next) < len(a.frames):
		pfn = a.next
		a.next++
	default:
		return 0, ErrNoMemory
	}
	a.frames[pfn] = FrameInfo{Use: use, Owner: owner}
	return pfn, nil
}

// Free returns a frame to the pool.
func (a *FrameAlloc) Free(pfn hw.PFN) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if int(pfn) >= len(a.frames) || a.frames[pfn].Use == UseFree {
		return
	}
	a.frames[pfn] = FrameInfo{}
	a.freed = append(a.freed, pfn)
}

// SetUse retags a frame (e.g. a guest page becoming shared).
func (a *FrameAlloc) SetUse(pfn hw.PFN, use PageUse, owner DomID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if int(pfn) < len(a.frames) {
		a.frames[pfn] = FrameInfo{Use: use, Owner: owner}
	}
}

// Total reports the number of tracked frames.
func (a *FrameAlloc) Total() int { return len(a.frames) }

// ForEach visits every frame's info in PFN order.
func (a *FrameAlloc) ForEach(fn func(pfn hw.PFN, info FrameInfo)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, fi := range a.frames {
		fn(hw.PFN(i), fi)
	}
}

// allocAdapter exposes FrameAlloc as an mmu.FrameAllocator with a fixed
// tag, for page-table construction.
type allocAdapter struct {
	a     *FrameAlloc
	use   PageUse
	owner DomID
}

func (ad allocAdapter) AllocFrame() (hw.PFN, error) { return ad.a.Alloc(ad.use, ad.owner) }
