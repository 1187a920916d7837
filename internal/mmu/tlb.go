package mmu

import (
	"sync"

	"fidelius/internal/hw"
	"fidelius/internal/telemetry"
)

type tlbKey struct {
	asid   hw.ASID
	vaPage uint64
	access AccessType
}

// TLB caches permission-checked translations, tagged by ASID so that guest
// and host entries coexist (AMD-V tagged TLBs). Fidelius's gate-cost
// analysis revolves around what each context-transition approach flushes:
// a CR3 switch flushes everything, the type 3 gate flushes single entries,
// the type 1 gate flushes nothing.
//
// A TLB belongs to one core, but invalidations arrive from other cores via
// the ShootdownBus, so every operation takes the internal mutex — a leaf
// lock, never held across calls into other subsystems.
type TLB struct {
	mu      sync.Mutex
	entries map[tlbKey]Translation

	// One-entry last-translation cache in front of the map: straight-line
	// guest code re-translates the same page with the same access type
	// for every load/store, so the common Lookup is a key compare, not a
	// map probe (the micro-TLB in front of a real walker).
	lastKey tlbKey
	lastTr  Translation
	lastOK  bool

	// Flush and lookup statistics, used by the micro-benchmarks and
	// served through the telemetry registry as reader funcs. Mutated
	// under mu.
	FullFlushes  uint64
	EntryFlushes uint64
	ASIDFlushes  uint64
	Hits         uint64
	Misses       uint64

	// Hub, when set (wired by cpu.New), receives flush trace events.
	Hub *telemetry.Hub
}

// NewTLB returns an empty TLB.
func NewTLB() *TLB {
	return &TLB{entries: make(map[tlbKey]Translation)}
}

// Lookup returns a cached translation for (asid, va, access).
func (t *TLB) Lookup(asid hw.ASID, va uint64, access AccessType) (Translation, bool) {
	k := tlbKey{asid, PageBase(va), access}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastOK && t.lastKey == k {
		t.Hits++
		return t.lastTr, true
	}
	tr, ok := t.entries[k]
	if ok {
		t.Hits++
		t.lastKey, t.lastTr, t.lastOK = k, tr, true
	} else {
		t.Misses++
	}
	return tr, ok
}

// Insert caches a translation.
func (t *TLB) Insert(asid hw.ASID, va uint64, access AccessType, tr Translation) {
	k := tlbKey{asid, PageBase(va), access}
	t.mu.Lock()
	t.entries[k] = tr
	t.lastKey, t.lastTr, t.lastOK = k, tr, true
	t.mu.Unlock()
}

// FlushAll empties the TLB (MOV CR3 without PCID, or explicit full flush).
func (t *TLB) FlushAll() {
	t.mu.Lock()
	t.entries = make(map[tlbKey]Translation)
	t.lastOK = false
	t.FullFlushes++
	t.mu.Unlock()
	if t.Hub.Tracing() {
		t.Hub.Emit(telemetry.KindTLBFlushFull, 0, 0, 0, 0, 0)
	}
}

// FlushEntry drops all cached translations of one page for one ASID
// (INVLPG / INVLPGA).
func (t *TLB) FlushEntry(asid hw.ASID, va uint64) {
	base := PageBase(va)
	t.mu.Lock()
	for _, a := range []AccessType{Read, Write, Execute} {
		delete(t.entries, tlbKey{asid, base, a})
	}
	if t.lastOK && t.lastKey.asid == asid && t.lastKey.vaPage == base {
		t.lastOK = false
	}
	t.EntryFlushes++
	t.mu.Unlock()
	if t.Hub.Tracing() {
		t.Hub.Emit(telemetry.KindTLBFlushEntry,
			t.Hub.VMForASID(uint32(asid)), uint32(asid), 0, va, 0)
	}
}

// FlushASID drops every entry of one ASID (the INVLPGA sweep a VMRUN with
// a flush-by-ASID control performs). Each dropped entry counts as an entry
// flush — the same accounting a loop of FlushEntry calls would produce —
// and the sweep itself is counted and traced, so gate-cost analysis sees
// ASID-wide invalidations instead of silently missing them.
func (t *TLB) FlushASID(asid hw.ASID) {
	t.mu.Lock()
	removed := uint64(0)
	for k := range t.entries {
		if k.asid == asid {
			delete(t.entries, k)
			removed++
		}
	}
	if t.lastOK && t.lastKey.asid == asid {
		t.lastOK = false
	}
	t.EntryFlushes += removed
	t.ASIDFlushes++
	t.mu.Unlock()
	if t.Hub.Tracing() {
		t.Hub.Emit(telemetry.KindTLBFlushASID,
			t.Hub.VMForASID(uint32(asid)), uint32(asid), 0, removed, 0)
	}
}

// Len reports the number of cached translations.
func (t *TLB) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Register publishes the TLB's statistics on the hub's registry and wires
// the hub for flush events.
func (t *TLB) Register(h *telemetry.Hub) {
	t.Hub = h
	if h == nil {
		return
	}
	read := func(f func() uint64) func() uint64 {
		return func() uint64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return f()
		}
	}
	h.Reg.RegisterFunc("tlb.hits", read(func() uint64 { return t.Hits }))
	h.Reg.RegisterFunc("tlb.misses", read(func() uint64 { return t.Misses }))
	h.Reg.RegisterFunc("tlb.full_flushes", read(func() uint64 { return t.FullFlushes }))
	h.Reg.RegisterFunc("tlb.entry_flushes", read(func() uint64 { return t.EntryFlushes }))
	h.Reg.RegisterFunc("tlb.asid_flushes", read(func() uint64 { return t.ASIDFlushes }))
}
