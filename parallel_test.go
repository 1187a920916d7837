package fidelius

import (
	"bytes"
	"fmt"
	"testing"
)

// TestScheduleParallelProtectedVMs is the facade-level equivalence gate:
// protected VMs launched from one owner bundle and run serially vs through
// ScheduleParallel must agree on everything an owner can observe — the
// launch measurement chain (each RECEIVE_FINISH verifies the same owner
// measurement), the re-encrypted kernel image, and the guest's written
// memory.
func TestScheduleParallelProtectedVMs(t *testing.T) {
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	kernel := make([]byte, 2*PageSize)
	for i := range kernel {
		kernel[i] = byte(i * 7)
	}
	bundle, kblk, err := PrepareGuest(owner, plat.PlatformKey(), kernel, nil)
	if err != nil {
		t.Fatal(err)
	}

	const memPages = 64
	launch := func(name string) *Domain {
		t.Helper()
		// Every launch replays the owner's RECEIVE chain; RECEIVE_FINISH
		// fails unless the firmware recomputes exactly the bundle's
		// measurement, so a successful launch IS measurement equality.
		vm, err := plat.LaunchVM(name, memPages, bundle)
		if err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
		return vm
	}
	serialVM := launch("serial")
	parA := launch("par-a")
	parB := launch("par-b")

	const (
		workGFN   = 2
		workPages = 3
		rounds    = 2
	)
	guest := func(g *GuestEnv) error {
		buf := make([]byte, PageSize)
		for r := 0; r < rounds; r++ {
			for p := uint64(0); p < workPages; p++ {
				for i := range buf {
					buf[i] = byte(uint64(r)*13 + p*31 + uint64(i))
				}
				if err := g.Write((workGFN+p)*PageSize, buf); err != nil {
					return err
				}
				if _, err := g.Hypercall(HCVoid); err != nil {
					return err
				}
			}
		}
		return nil
	}
	plat.StartVCPU(serialVM, guest)
	plat.StartVCPU(parA, guest)
	plat.StartVCPU(parB, guest)

	if err := plat.Run(serialVM); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if errs := plat.X.ScheduleParallel([]*Domain{parA, parB}, 2); len(errs) != 0 {
		t.Fatalf("parallel run: %v", errs)
	}

	// Per-domain plaintext images: working set and kernel region must be
	// byte-identical across scheduling modes (and the kernel must still
	// be the owner's plaintext).
	readPage := func(d *Domain, gfn uint64) []byte {
		t.Helper()
		pfn, ok := d.GPAFrame(gfn)
		if !ok {
			t.Fatalf("%s: gfn %d unbacked", d.Name, gfn)
		}
		var page [PageSize]byte
		if err := plat.X.M.Ctl.ReadPage(pfn, true, d.ASID, &page); err != nil {
			t.Fatalf("%s: read gfn %d: %v", d.Name, gfn, err)
		}
		return append([]byte{}, page[:]...)
	}
	for _, par := range []*Domain{parA, parB} {
		for gfn := uint64(workGFN); gfn < workGFN+workPages; gfn++ {
			if !bytes.Equal(readPage(serialVM, gfn), readPage(par, gfn)) {
				t.Errorf("gfn %d: serial and %s images differ", gfn, par.Name)
			}
		}
	}
	// The booted image is the owner's kernel with the 32-byte Kblk spliced
	// in at KblkOffset by PrepareGuest.
	wantKernel := append([]byte{}, kernel...)
	copy(wantKernel[KblkOffset:], kblk[:])
	kbase := plat.KernelBase(serialVM, bundle) // same geometry for all three
	for _, vm := range []*Domain{serialVM, parA, parB} {
		var img []byte
		for i := uint64(0); i < uint64(len(kernel)/PageSize); i++ {
			img = append(img, readPage(vm, kbase+i)...)
		}
		if !bytes.Equal(img, wantKernel) {
			t.Errorf("%s: kernel image diverged from the owner's plaintext", vm.Name)
		}
	}
}

// TestScheduleParallelFacadeUnprotected exercises the facade path on a
// stock-SEV platform: several encrypted VMs over the parallel scheduler,
// with the shared telemetry clock still monotonic and complete.
func TestScheduleParallelFacadeUnprotected(t *testing.T) {
	plat, err := NewPlatform(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var doms []*Domain
	for i := 0; i < 4; i++ {
		vm, err := plat.CreateVM(fmt.Sprintf("vm%d", i), 32, i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		id := vm.ID
		plat.StartVCPU(vm, func(g *GuestEnv) error {
			buf := make([]byte, 1024)
			for r := 0; r < 4; r++ {
				for j := range buf {
					buf[j] = byte(uint64(id)*5 + uint64(r+j))
				}
				if err := g.Write(0x3000, buf); err != nil {
					return err
				}
				if _, err := g.Hypercall(HCVoid); err != nil {
					return err
				}
			}
			return nil
		})
		doms = append(doms, vm)
	}
	before := plat.X.M.Ctl.Now()
	if errs := plat.X.ScheduleParallel(doms, 0); len(errs) != 0 {
		t.Fatalf("parallel run: %v", errs)
	}
	after := plat.X.M.Ctl.Now()
	if after <= before {
		t.Error("machine clock did not advance across the parallel run")
	}
	// All per-vCPU cycles folded back: the base counter now equals the
	// clock (no live views remain).
	if plat.X.M.Ctl.Now() != plat.X.M.Ctl.Cycles.Total() {
		t.Error("released cores left cycles outside the base counter")
	}
	for _, d := range doms {
		if plat.X.DomainCycles(d.ID) == 0 {
			t.Errorf("%s: no cycles attributed", d.Name)
		}
	}
}
