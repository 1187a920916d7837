package mmu

import (
	"sync"
	"testing"

	"fidelius/internal/hw"
)

func tlbTr(pfn hw.PFN) Translation {
	return Translation{HPA: pfn.Addr()}
}

// TestShootdownBusBroadcast checks the INVLPGA-IPI model: invalidations
// sent through the bus reach every registered core's TLB, and a core that
// goes offline stops receiving them.
func TestShootdownBusBroadcast(t *testing.T) {
	bus := &ShootdownBus{}
	a, b := NewTLB(), NewTLB()
	bus.Register(a)
	bus.Register(b)
	if bus.Cores() != 2 {
		t.Fatalf("Cores() = %d, want 2", bus.Cores())
	}

	fill := func() {
		for _, tlb := range []*TLB{a, b} {
			tlb.Insert(1, 0x1000, Read, tlbTr(1))
			tlb.Insert(1, 0x2000, Read, tlbTr(2))
			tlb.Insert(2, 0x1000, Read, tlbTr(3))
		}
	}
	fill()
	bus.FlushEntry(1, 0x1000)
	for name, tlb := range map[string]*TLB{"a": a, "b": b} {
		if _, ok := tlb.Lookup(1, 0x1000, Read); ok {
			t.Errorf("core %s kept the shot-down entry", name)
		}
		if _, ok := tlb.Lookup(1, 0x2000, Read); !ok {
			t.Errorf("core %s lost an unrelated entry", name)
		}
	}

	bus.FlushAll()
	if a.Len() != 0 || b.Len() != 0 {
		t.Errorf("FlushAll left entries: a=%d b=%d", a.Len(), b.Len())
	}
	if bus.Broadcasts() != 2 {
		t.Errorf("Broadcasts() = %d, want 2", bus.Broadcasts())
	}

	// Offline core stops receiving IPIs.
	bus.Unregister(b)
	if bus.Cores() != 1 {
		t.Fatalf("Cores() = %d after unregister, want 1", bus.Cores())
	}
	fill()
	bus.FlushEntry(1, 0x1000)
	if _, ok := a.Lookup(1, 0x1000, Read); ok {
		t.Error("online core kept the shot-down entry")
	}
	if _, ok := b.Lookup(1, 0x1000, Read); !ok {
		t.Error("offline core received a shootdown")
	}

	// Nil bus is inert (hand-built machines without a bus).
	var nilBus *ShootdownBus
	nilBus.Register(a)
	nilBus.FlushEntry(1, 0)
	nilBus.FlushAll()
	if nilBus.Cores() != 0 || nilBus.Broadcasts() != 0 {
		t.Error("nil bus is not inert")
	}
}

// TestShootdownBusConcurrent hammers the bus from several cores at once —
// registration churn racing broadcast storms, with every TLB also serving
// local lookups — under -race.
func TestShootdownBusConcurrent(t *testing.T) {
	bus := &ShootdownBus{}
	fixed := NewTLB()
	bus.Register(fixed)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := NewTLB()
			for i := 0; i < 300; i++ {
				switch i % 4 {
				case 0:
					bus.Register(mine)
				case 1:
					mine.Insert(hw.ASID(w), uint64(i)<<12, Read, tlbTr(hw.PFN(i)))
					bus.FlushEntry(hw.ASID(w), uint64(i)<<12)
				case 2:
					bus.FlushAll()
				case 3:
					bus.Unregister(mine)
				}
				fixed.Insert(hw.ASID(w), uint64(i)<<12, Read, tlbTr(hw.PFN(i)))
				fixed.Lookup(hw.ASID(w), uint64(i)<<12, Read)
			}
			bus.Unregister(mine)
		}(w)
	}
	wg.Wait()
	if bus.Cores() != 1 {
		t.Errorf("Cores() = %d after churn, want 1 (the fixed core)", bus.Cores())
	}
}

// Broadcasts reports how many invalidation broadcasts have been sent.
func (b *ShootdownBus) Broadcasts() uint64 {
	if b == nil {
		return 0
	}
	b.lock.Lock()
	defer b.lock.Unlock()
	return b.bcasts
}
