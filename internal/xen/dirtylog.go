package xen

import (
	"fmt"

	"fidelius/internal/hw"
	"fidelius/internal/mmu"
)

// Dirty-page tracking over the NPT, the substrate of pre-copy live
// migration: StartDirtyLog write-protects every backed leaf so guest
// writes fault into handleNPF (which logs the GFN and restores W), and
// CollectDirty drains the log while re-protecting exactly the collected
// pages for the next round. All leaf rewrites go through the interposer
// seam, so under Fidelius they are type 1 gates subject to PIT policy —
// a same-frame permission change, which the gatekeeper permits.

// setLeafW clears or restores the W bit on the NPT leaf backing gfn,
// preserving every other attribute. Unbacked GFNs are skipped.
func (x *Xen) setLeafW(d *Domain, gfn uint64, writable bool) error {
	if _, ok := d.GPAFrame(gfn); !ok {
		return nil
	}
	gpa := gfn << hw.PageShift
	slot, err := x.NPTLeafSlot(d, gpa)
	if err != nil {
		return nil // lazily-populated hole: nothing to protect yet
	}
	cur, err := x.readPTE(d, slot)
	if err != nil {
		return err
	}
	if !cur.Present() {
		return nil
	}
	want := cur.WithoutFlags(mmu.FlagW)
	if writable {
		want = cur.WithFlags(mmu.FlagW)
	}
	if want == cur {
		return nil
	}
	return x.Interpose.WritePTE(d, slot, want)
}

// StartDirtyLog arms the domain's dirty log and write-protects all backed
// guest frames, so that every subsequent guest write faults once and is
// recorded. The NPT generation bumps so vCPU translation caches flush.
// Like the other dirty-log toolstack entry points it takes the domain
// lock, serializing against the domain's own quanta.
func (x *Xen) StartDirtyLog(d *Domain) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Dirty == nil {
		d.Dirty = mmu.NewDirtyLog(d.MemPages)
	}
	d.Dirty.Collect() // discard stale bits from a previous session
	d.Dirty.Start()
	for gfn := uint64(0); gfn < uint64(d.MemPages); gfn++ {
		if err := x.setLeafW(d, gfn, false); err != nil {
			return fmt.Errorf("xen: dirty-log protect gfn %d: %w", gfn, err)
		}
	}
	d.NPTGen++
	return nil
}

// CollectDirty drains the dirty log and re-write-protects the collected
// pages, opening the next tracking round. The returned GFNs are the pages
// written since the previous collection (or since StartDirtyLog).
func (x *Xen) CollectDirty(d *Domain) ([]uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dirty := d.Dirty.Collect()
	for _, gfn := range dirty {
		if err := x.setLeafW(d, gfn, false); err != nil {
			return nil, fmt.Errorf("xen: dirty-log reprotect gfn %d: %w", gfn, err)
		}
	}
	if len(dirty) > 0 {
		d.NPTGen++
	}
	return dirty, nil
}

// StopDirtyLog disarms the log and restores the W bit on every backed
// frame, returning the domain to normal full-speed operation.
func (x *Xen) StopDirtyLog(d *Domain) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Dirty.Stop()
	d.Dirty.Collect()
	for gfn := uint64(0); gfn < uint64(d.MemPages); gfn++ {
		if err := x.setLeafW(d, gfn, true); err != nil {
			return fmt.Errorf("xen: dirty-log unprotect gfn %d: %w", gfn, err)
		}
	}
	d.NPTGen++
	return nil
}

// BackedGFNs lists every guest frame currently backed by a host frame, in
// ascending order — the page set a full-copy migration round must ship.
func (d *Domain) BackedGFNs() []uint64 {
	d.framesMu.RLock()
	defer d.framesMu.RUnlock()
	var out []uint64
	for gfn := range d.Frames {
		if d.Frames[gfn] != 0 {
			out = append(out, uint64(gfn))
		}
	}
	return out
}
