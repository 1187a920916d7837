package xen

import (
	"strconv"
	"sync"

	"fidelius/internal/cpu"
	"fidelius/internal/cycles"
	"fidelius/internal/parallel"
	"fidelius/internal/telemetry"
)

// ScheduleParallel runs a set of started domains concurrently: one runner
// goroutine per domain, bounded by a slot semaphore of width scheduling
// slots (the internal/parallel pool), each slot a simulated core brought
// online with Machine.NewCore. Every runner drives its own vCPU through
// the existing VMEXIT dispatch; guest code executes truly concurrently on
// per-vCPU controller views, and — since the big hypervisor lock was
// sharded away — host-side work is concurrent too: a runner holds only
// its domain's own lock for the quantum and touches shared shards (grant
// bytes, event handlers, the registry, allocators) through their own
// locks at the moments it genuinely shares. Quanta of distinct domains
// therefore contend only at real sharing points; the xen.lock_waits
// counters prove it. A width <= 0 picks GOMAXPROCS.
//
// The serial Schedule remains the default: its round-robin interleaving
// is deterministic, which the paper's attack demos and the golden traces
// rely on. ScheduleParallel trades that determinism for throughput. Both
// schedulers run the same quantum body (runQuantum) and the same guest
// round trip (switchGuest), so per-domain memory images, exit tallies and
// launch measurements are identical either way
// (TestScheduleParallelMatchesSerial).
//
// They differ in guest entry only: a runner enters on its own core
// (enterCore) instead of calling Interpose.VMRun, because the VMRUN stub
// executes on the single shared boot CPU and would re-serialize every
// quantum. VMRUN's entry cost is still charged per quantum, and the
// PreVMRun/OnVMExit boundary hooks — where Fidelius shadows and verifies
// the VMCB — still run for every quantum; under Fidelius they take the
// gate lock themselves for the shared-machine steps.
func (x *Xen) ScheduleParallel(doms []*Domain, width int) map[DomID]error {
	sp := x.M.Ctl.Telem.OpenScope("schedule-parallel", 0, 0).
		Attr("domains", strconv.Itoa(len(doms)))
	defer sp.Close()
	errs := make(map[DomID]error)
	var emu sync.Mutex
	pool := parallel.New(width)
	pool.Register(x.M.Ctl.Telem.Reg)
	pool.AttachHub(x.M.Ctl.Telem)
	_ = pool.ForEach(len(doms), func(i int) error {
		d := doms[i]
		if err := x.runDomain(d, sp.ID()); err != nil {
			emu.Lock()
			errs[d.ID] = err
			emu.Unlock()
		}
		return nil
	})
	return errs
}

// runDomain drives one domain to completion on a freshly onlined core.
// sched is the scheduler session span every quantum parents under.
func (x *Xen) runDomain(d *Domain, sched uint64) error {
	if done, err := stopped(d); done {
		return err
	}
	v := d.vcpu
	core := x.M.NewCore()
	defer x.M.ReleaseCore(core)
	// Hand the vCPU and the domain's host-side dispatch this core's
	// controller view; the guest goroutine is parked (StartVCPU blocks on
	// the first resume, a completed quantum blocks in exit()), so the
	// swap is ordered by the resume send below. The domain lock orders
	// the d.ctl swap against any other host-side reader.
	d.mu.Lock()
	v.ctl = core.Ctl
	d.ctl = core.Ctl
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		v.ctl = x.M.Ctl
		d.ctl = x.M.Ctl
		d.mu.Unlock()
	}()
	ctl := core.Ctl
	open := func() *telemetry.OpenSpan {
		return ctl.Telem.OpenSpan("quantum", uint32(d.ID), uint32(d.ASID), sched)
	}
	enter := func() error { return enterCore(d, core) }
	for {
		if done, err := x.runQuantum(d, ctl, open, enter); done {
			return err
		}
	}
}

// enterCore is a parallel runner's guest entry: it charges VMRUN's entry
// cost on the runner's own core, as the boot CPU's VMRUN instruction does
// on the serial path, then switches into the guest there.
func enterCore(d *Domain, core *cpu.CPU) error {
	tel := core.Ctl.Telem
	tel.M.VMRuns.Inc()
	if tel.Tracing() {
		tel.Emit(telemetry.KindVMRun, uint32(d.ID), uint32(d.ASID),
			cycles.VMEntry, uint64(d.VMCBPA()), 0)
	}
	core.Ctl.Cycles.Charge(cycles.VMEntry)
	return switchGuest(d, core)
}
