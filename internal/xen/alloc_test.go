package xen

import (
	"math/rand"
	"testing"

	"fidelius/internal/hw"
)

// listAlloc is the LIFO free-list allocator FrameAlloc replaced: the
// list is seeded with every frame in [start, total), start on top, and
// Free pushes on top. It is the reference the high-water-mark allocator
// must reproduce PFN for PFN.
type listAlloc struct {
	frames []FrameInfo
	free   []hw.PFN
}

func newListAlloc(start, total int) *listAlloc {
	a := &listAlloc{frames: make([]FrameInfo, total)}
	for i := 0; i < start; i++ {
		a.frames[i].Use = UseReserved
	}
	for i := total - 1; i >= start; i-- {
		a.free = append(a.free, hw.PFN(i))
	}
	return a
}

func (a *listAlloc) alloc(use PageUse, owner DomID) (hw.PFN, error) {
	if len(a.free) == 0 {
		return 0, ErrNoMemory
	}
	pfn := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.frames[pfn] = FrameInfo{Use: use, Owner: owner}
	return pfn, nil
}

func (a *listAlloc) release(pfn hw.PFN) {
	if int(pfn) >= len(a.frames) || a.frames[pfn].Use == UseFree {
		return
	}
	a.frames[pfn] = FrameInfo{}
	a.free = append(a.free, pfn)
}

func (a *listAlloc) setUse(pfn hw.PFN, use PageUse, owner DomID) {
	if int(pfn) < len(a.frames) {
		a.frames[pfn] = FrameInfo{Use: use, Owner: owner}
	}
}

// TestFrameAllocMatchesFreeList runs seeded random Alloc/Free/SetUse
// sequences, with double frees, frees of frames never handed out or past
// the end, and retags of free frames, against the free-list reference:
// every PFN, error, free count and FrameInfo must be identical.
func TestFrameAllocMatchesFreeList(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		total := 1 + rng.Intn(24)
		start := rng.Intn(min(total, 3) + 1)
		got, want := NewFrameAlloc(start, total), newListAlloc(start, total)
		for step := 0; step < 300; step++ {
			pfn := hw.PFN(rng.Intn(total + 2))
			use, owner := PageUse(rng.Intn(int(UseShared)+1)), DomID(rng.Intn(4))
			switch op := rng.Intn(10); {
			case op < 5:
				gp, gerr := got.Alloc(use, owner)
				wp, werr := want.alloc(use, owner)
				if gp != wp || gerr != werr {
					t.Fatalf("seed %d step %d: Alloc = %d, %v; free list gives %d, %v", seed, step, gp, gerr, wp, werr)
				}
			case op < 9:
				got.Free(pfn)
				want.release(pfn)
			default:
				got.SetUse(pfn, use, owner)
				want.setUse(pfn, use, owner)
			}
			if got.FreeCount() != len(want.free) {
				t.Fatalf("seed %d step %d: FreeCount = %d, free list holds %d", seed, step, got.FreeCount(), len(want.free))
			}
			got.ForEach(func(p hw.PFN, fi FrameInfo) {
				if fi != want.frames[p] {
					t.Fatalf("seed %d step %d: frame %d is %+v, free list says %+v", seed, step, p, fi, want.frames[p])
				}
			})
		}
	}
}
