package mmu

import (
	"sync/atomic"

	"fidelius/internal/hw"
	"fidelius/internal/lockrank"
)

// ShootdownBus broadcasts TLB invalidations to every registered core TLB —
// the software analogue of the INVLPGA IPIs a multi-core hypervisor sends
// so remote cores drop stale translations before a protection-relevant
// unmap takes effect. Cores register their TLB when they come online (the
// boot CPU at machine build, per-domain cores in ScheduleParallel) and
// unregister when they go offline.
//
// Lock order: the bus mutex (lock rank: bus) sits below every hypervisor
// lock and above only the per-TLB leaf mutexes; nothing acquires the bus
// while holding a TLB lock.
type ShootdownBus struct {
	lock   lockrank.Mutex
	tlbs   []*TLB
	bcasts uint64
}

// SetLockInfo ranks the bus lock and wires its contention counter. The
// machine calls it once at build, before any concurrent use.
func (b *ShootdownBus) SetLockInfo(rank lockrank.Rank, waits *atomic.Uint64) {
	if b == nil {
		return
	}
	b.lock.Init(rank, waits)
}

// Register adds a core's TLB to the broadcast set.
func (b *ShootdownBus) Register(t *TLB) {
	if b == nil || t == nil {
		return
	}
	b.lock.Lock()
	b.tlbs = append(b.tlbs, t)
	b.lock.Unlock()
}

// Unregister removes a core's TLB from the broadcast set.
func (b *ShootdownBus) Unregister(t *TLB) {
	if b == nil {
		return
	}
	b.lock.Lock()
	for i, x := range b.tlbs {
		if x == t {
			b.tlbs = append(b.tlbs[:i], b.tlbs[i+1:]...)
			break
		}
	}
	b.lock.Unlock()
}

// FlushEntry invalidates one page of one ASID on every registered core.
func (b *ShootdownBus) FlushEntry(asid hw.ASID, va uint64) {
	if b == nil {
		return
	}
	b.lock.Lock()
	defer b.lock.Unlock()
	b.bcasts++
	for _, t := range b.tlbs {
		t.FlushEntry(asid, va)
	}
}

// FlushAll empties every registered core's TLB.
func (b *ShootdownBus) FlushAll() {
	if b == nil {
		return
	}
	b.lock.Lock()
	defer b.lock.Unlock()
	b.bcasts++
	for _, t := range b.tlbs {
		t.FlushAll()
	}
}

// Cores reports how many TLBs are registered.
func (b *ShootdownBus) Cores() int {
	if b == nil {
		return 0
	}
	b.lock.Lock()
	defer b.lock.Unlock()
	return len(b.tlbs)
}
