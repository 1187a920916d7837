package xen

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fidelius/internal/hw"
	"fidelius/internal/lockrank"
	"fidelius/internal/sev"
)

// TestParallelQuantaContentionFree is the checkable form of the sharding
// claim: 64 eagerly populated domains run concurrently and their quanta
// touch only per-domain state, so the domain-lock and gate-lock
// contention counters must not move at all. Any hot-path acquisition of
// shared machine state would show up here as a non-zero delta. The lock
// rank checker is armed for the duration, so an ordering violation
// panics rather than deadlocking.
func TestParallelQuantaContentionFree(t *testing.T) {
	const (
		nDoms    = 64
		memPages = 8
		workGFN  = 2
		rounds   = 3
	)
	lockrank.SetEnabled(true)
	defer lockrank.SetEnabled(false)
	m, err := NewMachine(Config{MemPages: 4096, CacheLines: 1024})
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	var doms []*Domain
	for i := 0; i < nDoms; i++ {
		d, err := x.CreateDomain(DomainConfig{
			Name:     fmt.Sprintf("fleet%d", i),
			MemPages: memPages,
			SEV:      i%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
		id := d.ID
		x.StartVCPU(d, func(g *GuestEnv) error {
			buf := make([]byte, 64)
			for r := 0; r < rounds; r++ {
				for i := range buf {
					buf[i] = byte(uint64(id)*13 + uint64(r))
				}
				if err := g.Write(workGFN*hw.PageSize, buf); err != nil {
					return err
				}
				if _, err := g.Hypercall(HCVoid); err != nil {
					return err
				}
			}
			return nil
		})
	}
	domWaits := m.Waits.Domain.Load()
	gateWaits := m.Waits.Gate.Load()
	if errs := x.ScheduleParallel(doms, 0); len(errs) != 0 {
		t.Fatalf("parallel scheduler errors: %v", errs)
	}
	if delta := m.Waits.Domain.Load() - domWaits; delta != 0 {
		t.Errorf("domain locks contended %d times during disjoint quanta, want 0", delta)
	}
	if delta := m.Waits.Gate.Load() - gateWaits; delta != 0 {
		t.Errorf("gate lock contended %d times during disjoint quanta, want 0", delta)
	}
	for _, d := range doms {
		if x.DomainCycles(d.ID) == 0 {
			t.Errorf("dom %d: no cycles attributed", d.ID)
		}
	}
}

// TestConcurrentGrantAndEventStorm hammers the genuine sharing points
// from 16 concurrent domains: every guest loops grant → map → write
// through the alias → unmap → revoke against its own table (the grant
// bytes and NPT writes all cross the gate lock) and kicks its event
// channel every round (handler-table shard plus gate-locked handler
// invocation). Correctness, not absence of contention, is the assertion
// here: aliased writes must land and every signal must be delivered.
func TestConcurrentGrantAndEventStorm(t *testing.T) {
	const (
		nDoms    = 16
		memPages = 8
		srcGFN   = 3
		rounds   = 5
		port     = 1
	)
	lockrank.SetEnabled(true)
	defer lockrank.SetEnabled(false)
	m, err := NewMachine(Config{MemPages: 4096, CacheLines: 1024})
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	var signals atomic.Uint64
	var doms []*Domain
	for i := 0; i < nDoms; i++ {
		d, err := x.CreateDomain(DomainConfig{
			Name:     fmt.Sprintf("storm%d", i),
			MemPages: memPages,
		})
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
		x.Events.Bind(d.ID, port, func() error {
			signals.Add(1)
			return nil
		})
		id := d.ID
		x.StartVCPU(d, func(g *GuestEnv) error {
			dstGFN := uint64(memPages) // alias slot beyond guest memory
			for r := 0; r < rounds; r++ {
				ref, err := g.Hypercall(HCGrantTableOp, GntOpGrant, uint64(id), srcGFN, 0)
				if err != nil {
					return fmt.Errorf("dom %d round %d grant: %w", id, r, err)
				}
				if _, err := g.Hypercall(HCGrantTableOp, GntOpMap, uint64(id), ref, dstGFN); err != nil {
					return fmt.Errorf("dom %d round %d map: %w", id, r, err)
				}
				pat := []byte(fmt.Sprintf("dom%d-round%d", id, r))
				if err := g.Write(dstGFN*hw.PageSize, pat); err != nil {
					return fmt.Errorf("dom %d round %d aliased write: %w", id, r, err)
				}
				got := make([]byte, len(pat))
				if err := g.Read(srcGFN*hw.PageSize, got); err != nil {
					return fmt.Errorf("dom %d round %d readback: %w", id, r, err)
				}
				for i := range pat {
					if got[i] != pat[i] {
						return fmt.Errorf("dom %d round %d: alias write did not land: %q != %q", id, r, got, pat)
					}
				}
				if _, err := g.Hypercall(HCGrantTableOp, GntOpUnmap, dstGFN); err != nil {
					return fmt.Errorf("dom %d round %d unmap: %w", id, r, err)
				}
				if _, err := g.Hypercall(HCGrantTableOp, GntOpRevoke, ref); err != nil {
					return fmt.Errorf("dom %d round %d revoke: %w", id, r, err)
				}
				if _, err := g.Hypercall(HCEventChannelOp, EvtOpSend, port); err != nil {
					return fmt.Errorf("dom %d round %d signal: %w", id, r, err)
				}
			}
			return nil
		})
	}
	if errs := x.ScheduleParallel(doms, 0); len(errs) != 0 {
		t.Fatalf("parallel scheduler errors: %v", errs)
	}
	if got := signals.Load(); got != nDoms*rounds {
		t.Errorf("event storm delivered %d signals, want %d", got, nDoms*rounds)
	}
}

// TestConcurrentLifecycleChurn is the fleet-scale boot storm: eight
// workers each run 40 full domain lifetimes (create with a live SEV
// context, run a quantum, destroy) — 320 lifetimes against a pool of
// 254 ASIDs, so the churn must cross the hardware limit and recycle
// ASIDs behind a batch DF_FLUSH. The pool never hands out an ASID above
// the limit, the allocator ends where it started (no frame leaks,
// start-info page included), and every live resource drains to zero.
func TestConcurrentLifecycleChurn(t *testing.T) {
	const (
		workers   = 8
		lifetimes = 40
	)
	lockrank.SetEnabled(true)
	defer lockrank.SetEnabled(false)
	x := newXen(t)
	freeBefore := x.M.Alloc.FreeCount()
	var maxASID atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for l := 0; l < lifetimes; l++ {
				d, err := x.CreateDomain(DomainConfig{
					Name:     fmt.Sprintf("churn%d-%d", w, l),
					MemPages: 8,
					SEV:      true,
				})
				if err != nil {
					errs <- fmt.Errorf("worker %d lifetime %d create: %w", w, l, err)
					return
				}
				for {
					cur := maxASID.Load()
					if uint64(d.ASID) <= cur || maxASID.CompareAndSwap(cur, uint64(d.ASID)) {
						break
					}
				}
				x.StartVCPU(d, func(g *GuestEnv) error {
					if err := g.Write(2*hw.PageSize, []byte("alive")); err != nil {
						return err
					}
					_, err := g.Hypercall(HCVoid)
					return err
				})
				if serrs := x.ScheduleParallel([]*Domain{d}, 1); len(serrs) != 0 {
					errs <- fmt.Errorf("worker %d lifetime %d run: %v", w, l, serrs)
					return
				}
				if err := x.DestroyDomain(d); err != nil {
					errs <- fmt.Errorf("worker %d lifetime %d destroy: %w", w, l, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := maxASID.Load(); got > sev.DefaultASIDLimit {
		t.Errorf("pool handed out ASID %d beyond the hardware limit %d", got, sev.DefaultASIDLimit)
	}
	if x.ASIDs.Flushes() == 0 {
		t.Error("320 lifetimes over 254 ASIDs never forced a DF_FLUSH recycle")
	}
	if x.ASIDs.Recycles() == 0 {
		t.Error("no allocation was ever served from a recycled ASID")
	}
	if live := x.ASIDs.Live(); live != 0 {
		t.Errorf("%d ASIDs still live after every domain was destroyed", live)
	}
	if freeAfter := x.M.Alloc.FreeCount(); freeAfter != freeBefore {
		t.Errorf("allocator leaked %d frames across churn (free %d -> %d)",
			freeBefore-freeAfter, freeBefore, freeAfter)
	}
}

// TestASIDReuseRefusedWithoutFlush pins the CROSSLINE defense at the
// firmware boundary: activating a fresh guest context on an ASID that
// was retired without an intervening DF_FLUSH must fail with
// ErrASIDDirty and leave an "asid-reuse" record in the audit ledger;
// after the flush the same activation succeeds. The hypervisor's pool
// never takes this path (it flushes before recycling) — this is the
// backstop for a hypervisor that tries.
func TestASIDReuseRefusedWithoutFlush(t *testing.T) {
	x := newXen(t)
	led := x.M.Ctl.Telem.StartLedger()
	const asid = hw.ASID(7)

	h1, err := x.M.FW.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.M.FW.LaunchFinish(h1); err != nil {
		t.Fatal(err)
	}
	if err := x.M.FW.Activate(h1, asid); err != nil {
		t.Fatal(err)
	}
	if err := x.M.FW.Deactivate(h1); err != nil {
		t.Fatal(err)
	}

	// Relaunch into the retired-but-unflushed ASID.
	h2, err := x.M.FW.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.M.FW.LaunchFinish(h2); err != nil {
		t.Fatal(err)
	}
	err = x.M.FW.Activate(h2, asid)
	if !errors.Is(err, sev.ErrASIDDirty) {
		t.Fatalf("activate on dirty asid: got %v, want ErrASIDDirty", err)
	}
	found := false
	for _, r := range led.Records() {
		if r.Class == "asid-reuse" {
			found = true
		}
	}
	if !found {
		t.Error("dirty-ASID activation left no asid-reuse audit record")
	}

	// DF_FLUSH scrubs the fabric; the same activation now succeeds.
	if err := x.M.FW.DFFlush(); err != nil {
		t.Fatal(err)
	}
	if err := x.M.FW.Activate(h2, asid); err != nil {
		t.Fatalf("activate after DF_FLUSH: %v", err)
	}
}
