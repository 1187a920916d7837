package fidelius

// Whole-system integration stress: many protected VMs with mixed
// workloads (compute, disk I/O on both protection paths, sharing,
// console) scheduled round-robin on one platform, while the hypervisor
// interleaves attack attempts between quanta. At the end: every guest's
// data is intact, no attack succeeded, and the platform's accounting is
// consistent.

import (
	"bytes"
	"fmt"
	"testing"

	"fidelius/internal/kv"
	"fidelius/internal/mmu"
	"fidelius/internal/xen"
)

func TestIntegrationManyVMsUnderAttack(t *testing.T) {
	plat, err := NewPlatform(Config{Protected: true, MemPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner()
	if err != nil {
		t.Fatal(err)
	}

	const nVMs = 4
	type vmState struct {
		d       *Domain
		backend *BlockBackend
		dk      *Disk
		secret  []byte
	}
	var vms []*vmState
	for i := 0; i < nVMs; i++ {
		kernel := bytes.Repeat([]byte(fmt.Sprintf("KERNEL-%02d-16byte", i)), 256)
		bundle, _, err := PrepareGuest(owner, plat.PlatformKey(), kernel, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := plat.LaunchVM(fmt.Sprintf("vm%d", i), 64, bundle)
		if err != nil {
			t.Fatal(err)
		}
		if err := plat.SetupIOSession(d); err != nil {
			t.Fatal(err)
		}
		dk := NewDisk(128)
		backend, err := plat.AttachDisk(d, dk, 2, uint32(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		backend.SnoopEnabled = true
		vms = append(vms, &vmState{
			d: d, backend: backend, dk: dk,
			secret: bytes.Repeat([]byte(fmt.Sprintf("SECRET-%02d-16byte", i)), 32),
		})
	}

	// Guest kernels: compute, write memory, push the secret through the
	// SEV I/O path, read it back, print to the console.
	var doms []*Domain
	for i, vm := range vms {
		i, vm := i, vm
		doms = append(doms, vm.d)
		plat.StartVCPU(vm.d, func(g *GuestEnv) error {
			if err := g.Write(0x8000, vm.secret); err != nil {
				return err
			}
			bf, err := NewBlockFrontend(g)
			if err != nil {
				return err
			}
			front := NewSEVFront(g, bf)
			if err := front.WriteSectors(uint64(4+i), vm.secret); err != nil {
				return err
			}
			got := make([]byte, len(vm.secret))
			if err := front.ReadSectors(uint64(4+i), got); err != nil {
				return err
			}
			if !bytes.Equal(got, vm.secret) {
				return fmt.Errorf("vm%d: disk round trip mismatch", i)
			}
			// Several scheduling quanta of compute + exits.
			for r := 0; r < 6; r++ {
				g.Charge(10_000)
				if _, err := g.Hypercall(HCVoid); err != nil {
					return err
				}
			}
			return g.ConsolePrint(fmt.Sprintf("vm%d ok", i))
		})
	}

	// Interleave: one scheduler quantum per domain, then one attack
	// attempt, repeated until all guests finish.
	attackRound := 0
	pending := append([]*Domain{}, doms...)
	for len(pending) > 0 {
		next := pending[:0]
		for _, d := range pending {
			done, err := plat.X.RunOnce(d)
			if err != nil {
				t.Fatalf("domain %d: %v", d.ID, err)
			}
			if !done {
				next = append(next, d)
			}
		}
		pending = next

		// The hypervisor misbehaves between quanta.
		victim := vms[attackRound%nVMs]
		switch attackRound % 3 {
		case 0: // direct read of a guest page
			pfn, _ := victim.d.GPAFrame(8)
			if err := plat.X.M.CPU.ReadVA(uint64(pfn.Addr()), make([]byte, 8)); err == nil {
				t.Fatal("mid-run direct read succeeded")
			}
		case 1: // NPT remap attempt through the gate
			slot, err := plat.X.NPTLeafSlot(victim.d, 9<<12)
			if err == nil {
				frame, _ := victim.d.GPAFrame(10)
				if werr := plat.X.Interpose.WritePTE(victim.d, slot, mmu.MakePTE(frame, mmu.FlagP|mmu.FlagW|mmu.FlagU)); werr == nil {
					t.Fatal("mid-run replay remap succeeded")
				}
			}
		case 2: // grant forgery
			slot, _ := victim.d.Grant.SlotPA(0)
			forged := xen.GrantEntry{Flags: xen.GrantInUse, Grantee: 0, GFN: 9}
			var buf [xen.GrantEntrySize]byte
			forged.Marshal(buf[:])
			if werr := plat.X.M.CPU.WriteVA(uint64(slot), buf[:]); werr == nil {
				t.Fatal("mid-run grant forgery succeeded")
			}
		}
		attackRound++
	}

	// Aftermath: every guest's data intact and private.
	dump := make([]byte, plat.X.M.Ctl.Mem.Size())
	plat.X.M.Ctl.Mem.ReadRaw(0, dump)
	for i, vm := range vms {
		if got := plat.X.ConsoleLog(vm.d.ID); string(got) != fmt.Sprintf("vm%d ok", i) {
			t.Errorf("vm%d console: %q", i, got)
		}
		if bytes.Contains(vm.backend.Snoop, vm.secret[:16]) {
			t.Errorf("vm%d: secret leaked to the backend", i)
		}
		if bytes.Contains(vm.dk.Snapshot(), vm.secret[:16]) {
			t.Errorf("vm%d: secret leaked to the disk", i)
		}
		if bytes.Contains(dump, vm.secret[:16]) {
			t.Errorf("vm%d: secret visible in a physical dump", i)
		}
	}
	// The mid-run attacks were logged.
	if len(plat.Violations()) == 0 {
		t.Error("no violations logged despite interleaved attacks")
	}
	// Clean teardown of everything.
	for _, vm := range vms {
		if err := plat.Shutdown(vm.d); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
}

func TestIntegrationMixedProtectedAndPlainVMs(t *testing.T) {
	// Protected and unprotected guests coexist; protection is per-VM.
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := NewOwner()
	bundle, _, err := PrepareGuest(owner, plat.PlatformKey(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := plat.LaunchVM("prot", 32, bundle)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plat.CreateVM("plain", 32, false)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("protected-only-secret!!!")
	public := []byte("plain-guest-data")
	plat.StartVCPU(prot, func(g *GuestEnv) error { return g.Write(0x4000, secret) })
	plat.StartVCPU(plain, func(g *GuestEnv) error { return g.Write(0x4000, public) })
	if errs := plat.Schedule([]*Domain{prot, plain}); len(errs) != 0 {
		t.Fatalf("schedule: %v", errs)
	}
	// DRAM shows the plain guest's data but not the protected one's.
	pp, _ := prot.GPAFrame(4)
	qq, _ := plain.GPAFrame(4)
	bufP := make([]byte, len(secret))
	bufQ := make([]byte, len(public))
	plat.X.M.Ctl.Mem.ReadRaw(pp.Addr(), bufP)
	plat.X.M.Ctl.Mem.ReadRaw(qq.Addr(), bufQ)
	if bytes.Equal(bufP, secret) {
		t.Error("protected guest's memory in plaintext")
	}
	if !bytes.Equal(bufQ, public) {
		t.Error("plain guest's memory should be plaintext")
	}
	// The non-SEV guest's pages are still unmapped from the hypervisor
	// (Fidelius protects the mapping layer for every guest it sees).
	if err := plat.X.M.CPU.ReadVA(uint64(pp.Addr()), make([]byte, 4)); err == nil {
		t.Error("hypervisor reads protected guest page")
	}
}

func TestIntegrationKVStoreAcrossGenerations(t *testing.T) {
	// The kvstore example as a test: tenant records written by one VM
	// generation are recovered by the next from the Kblk-encrypted disk,
	// with nothing visible outside the guests in between — including
	// across the frame recycling that VM teardown causes.
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := NewOwner()
	kernel := bytes.Repeat([]byte("KV-TEST-KERNEL!!"), 256)
	bundle, kblk, err := PrepareGuest(owner, plat.PlatformKey(), kernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	dk := NewDisk(256)
	secret := []byte("pan=4111111111111111")

	runGen := func(name string, fn func(g *GuestEnv, dev *AESNIFront) error) {
		t.Helper()
		vm, err := plat.LaunchVM(name, 64, bundle)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plat.AttachDisk(vm, dk, 2, 1, nil); err != nil {
			t.Fatal(err)
		}
		plat.StartVCPU(vm, func(g *GuestEnv) error {
			bf, err := NewBlockFrontend(g)
			if err != nil {
				return err
			}
			dev, err := NewAESNIFront(g, bf, kblk)
			if err != nil {
				return err
			}
			return fn(g, dev)
		})
		if err := plat.Run(vm); err != nil {
			t.Fatal(err)
		}
		if err := plat.Shutdown(vm); err != nil {
			t.Fatal(err)
		}
	}

	runGen("gen1", func(g *GuestEnv, dev *AESNIFront) error {
		if err := kvFormat(dev); err != nil {
			return err
		}
		return kvPut(dev, "card", secret)
	})
	runGen("gen2", func(g *GuestEnv, dev *AESNIFront) error {
		got, err := kvGet(dev, "card")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, secret) {
			return fmt.Errorf("recovered %q", got)
		}
		return nil
	})
	if bytes.Contains(dk.Snapshot(), secret) {
		t.Fatal("tenant record visible on the physical disk")
	}
}

// Minimal kv helpers over the internal store, kept here so the root test
// does not grow a dependency cycle.
func kvFormat(dev *AESNIFront) error { return kv.Format(dev, 8, kvSectors) }

// kvSectors sizes the store region: a superblock and two 64-sector halves.
const kvSectors = 1 + 2*64

func kvPut(dev *AESNIFront, key string, val []byte) error {
	s, err := kv.Open(dev, 8, kvSectors)
	if err != nil {
		return err
	}
	return s.Put(key, val)
}

func kvGet(dev *AESNIFront, key string) ([]byte, error) {
	s, err := kv.Open(dev, 8, kvSectors)
	if err != nil {
		return nil, err
	}
	return s.Get(key)
}
