package fidelius

import (
	"bytes"
	"testing"
	"time"
)

// TestFacadeLifecycle exercises the public API end to end, the way the
// README quickstart does.
func TestFacadeLifecycle(t *testing.T) {
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	if plat.F == nil {
		t.Fatal("platform should be protected")
	}
	owner, err := NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	kernel := bytes.Repeat([]byte("public-api-kern!"), 256)
	diskImg := bytes.Repeat([]byte("disk-content-16b"), 64)
	bundle, kblk, err := PrepareGuest(owner, plat.PlatformKey(), kernel, diskImg)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := plat.LaunchVM("api-guest", 64, bundle)
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.SetupIOSession(vm); err != nil {
		t.Fatal(err)
	}
	dk := NewDisk(128)
	if _, err := plat.AttachDisk(vm, dk, 2, 1, bundle); err != nil {
		t.Fatal(err)
	}

	kbase := plat.KernelBase(vm, bundle) * PageSize
	var gotKblk [32]byte
	plat.StartVCPU(vm, func(g *GuestEnv) error {
		if err := g.Read(kbase+KblkOffset, gotKblk[:]); err != nil {
			return err
		}
		bf, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		// Read the owner-prepared disk through the AES-NI path.
		front, err := NewAESNIFront(g, bf, gotKblk)
		if err != nil {
			return err
		}
		buf := make([]byte, SectorSize)
		if err := front.ReadSectors(0, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf[:16], []byte("disk-content-16b")) {
			t.Error("disk image did not decrypt through the public API")
		}
		// And write through the SEV path.
		sf := NewSEVFront(g, bf)
		return sf.WriteSectors(50, bytes.Repeat([]byte{0xAA}, SectorSize))
	})
	if err := plat.Run(vm); err != nil {
		t.Fatal(err)
	}
	if gotKblk != kblk {
		t.Fatal("guest recovered a different Kblk")
	}
	if err := plat.Shutdown(vm); err != nil {
		t.Fatal(err)
	}
	if len(plat.Violations()) != 0 {
		t.Fatalf("benign session produced violations: %v", plat.Violations())
	}
}

func TestFacadeUnprotectedErrors(t *testing.T) {
	plat, err := NewPlatform(Config{MemPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	if plat.F != nil {
		t.Fatal("platform should not be protected")
	}
	if _, err := plat.LaunchVM("x", 16, nil); err == nil {
		t.Fatal("LaunchVM on unprotected platform should fail")
	}
	vm, err := plat.CreateVM("plain", 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.SetupIOSession(vm); err == nil {
		t.Fatal("SetupIOSession on unprotected platform should fail")
	}
	if _, err := plat.MigrateOut(vm, plat); err == nil {
		t.Fatal("MigrateOut on unprotected platform should fail")
	}
	if err := plat.Shutdown(vm); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMigration(t *testing.T) {
	src, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := NewOwner()
	bundle, _, err := PrepareGuest(owner, src.PlatformKey(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := src.LaunchVM("mover", 32, bundle)
	if err != nil {
		t.Fatal(err)
	}
	src.StartVCPU(vm, func(g *GuestEnv) error {
		return g.Write(0x7000, []byte("travels with me"))
	})
	if err := src.Run(vm); err != nil {
		t.Fatal(err)
	}
	snap, err := src.MigrateOut(vm, dst)
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := dst.MigrateIn(snap, src)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 15)
	dst.StartVCPU(vm2, func(g *GuestEnv) error { return g.Read(0x7000, got) })
	if err := dst.Run(vm2); err != nil {
		t.Fatal(err)
	}
	if string(got) != "travels with me" {
		t.Fatalf("migrated state: %q", got)
	}
}

// TestLiveMigrateSourceFailureReturns pins that LiveMigrate returns when
// the source fails before sending a frame: the target's receive used to
// wait on the pipe forever, and LiveMigrate with it.
func TestLiveMigrateSourceFailureReturns(t *testing.T) {
	src, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := src.CreateVM("unprotected", 16, false)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := LiveMigrate(src, vm, dst, MigrateConfig{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("live migration of a VM Fidelius does not protect succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("LiveMigrate still blocked 10 s after its source failed")
	}
}

func TestFacadeExtensions(t *testing.T) {
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	// Attestation through the facade.
	q, err := plat.Attest([]byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := plat.AttestationKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(pub, q, []byte("n")); err != nil {
		t.Fatal(err)
	}
	// GEK portable boot through the facade.
	owner, _ := NewOwner()
	img, gek, err := PrepareGEKGuest(owner, bytes.Repeat([]byte("FACADE-GEK-KERN!"), 256))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := BindGEKGuest(owner, plat.PlatformKey(), img, gek)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := plat.LaunchVMFromGEK("gek", 48, gb)
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.EnableIntegrity(vm); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSchedule(t *testing.T) {
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := NewOwner()
	var doms []*Domain
	for i := 0; i < 2; i++ {
		b, _, err := PrepareGuest(owner, plat.PlatformKey(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := plat.LaunchVM("sched", 32, b)
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, vm)
		plat.StartVCPU(vm, func(g *GuestEnv) error {
			_, err := g.Hypercall(HCVoid)
			return err
		})
	}
	if errs := plat.Schedule(doms); len(errs) != 0 {
		t.Fatalf("schedule errors: %v", errs)
	}
}
