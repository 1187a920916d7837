package core

import (
	"bytes"
	"errors"
	"testing"

	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

// The Section 8 extensions: hardware integrity (BMT) and customized keys
// (SETENC_GEK / ENC / DEC).

func TestIntegrityDetectsRowhammer(t *testing.T) {
	x, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("bmt", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	// Guest writes data, then integrity is enabled.
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		return g.Write(0x5000, []byte("integrity-protected data"))
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if err := f.EnableIntegrity(d); err != nil {
		t.Fatal(err)
	}
	root1 := f.M.Ctl.Integ.Root()
	if root1 == ([32]byte{}) {
		t.Fatal("no integrity root")
	}

	// Without the attack, the guest keeps working (updates re-hash).
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		if err := g.Write(0x5000, []byte("updated contents....")); err != nil {
			return err
		}
		buf := make([]byte, 20)
		return g.Read(0x5000, buf)
	})
	if err := x.Run(d); err != nil {
		t.Fatalf("benign writes must keep verifying: %v", err)
	}
	root2 := f.M.Ctl.Integ.Root()
	if root1 == root2 {
		t.Fatal("root did not change after a legitimate update")
	}

	// Rowhammer: with plain SEV the flip silently scrambles a block;
	// with the BMT it is *detected* at the next read.
	pfn, _ := d.GPAFrame(5)
	if err := x.M.Ctl.Mem.FlipBit(pfn.Addr()+8, 3); err != nil {
		t.Fatal(err)
	}
	x.M.Ctl.Cache.Flush()
	var readErr error
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		readErr = g.Read(0x5000, make([]byte, 20))
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(readErr, hw.ErrIntegrity) {
		t.Fatalf("rowhammer flip not detected: %v", readErr)
	}
}

func TestIntegrityDetectsDMAOverwrite(t *testing.T) {
	x, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("bmt2", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.EnableIntegrity(d); err != nil {
		t.Fatal(err)
	}
	pfn, _ := d.GPAFrame(7)
	// A malicious device DMAs garbage over the protected page.
	if err := x.M.Ctl.DMA().Write(pfn.Addr(), bytes.Repeat([]byte{0xEE}, 64)); err != nil {
		t.Fatal(err)
	}
	var readErr error
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		readErr = g.Read(7<<hw.PageShift, make([]byte, 16))
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(readErr, hw.ErrIntegrity) {
		t.Fatalf("DMA overwrite not detected: %v", readErr)
	}
}

func TestGEKPortableImageBootsOnTwoPlatforms(t *testing.T) {
	// The image is prepared ONCE, with no platform key in sight...
	owner, err := sev.NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	kernel := bytes.Repeat([]byte("PORTABLE-KERNEL!"), 256)
	img, gek, err := PrepareGEKGuest(owner, kernel)
	if err != nil {
		t.Fatal(err)
	}

	// ...and deployed to two independent platforms by wrapping the GEK
	// for each at deployment time — impossible with the stock SEND API,
	// which binds the image to one machine during preparation.
	for i := 0; i < 2; i++ {
		x, f := newPlatform(t)
		pub, err := f.M.FW.PublicKey()
		if err != nil {
			t.Fatal(err)
		}
		bundle, err := BindGEKGuest(owner, pub, img, gek)
		if err != nil {
			t.Fatal(err)
		}
		d, err := f.LaunchVMFromGEK("portable", 48, bundle)
		if err != nil {
			t.Fatal(err)
		}
		kbase := uint64(d.MemPages-img.NumPages()) << hw.PageShift
		got := make([]byte, 16)
		x.StartVCPU(d, func(g *xen.GuestEnv) error {
			return g.Read(kbase, got)
		})
		if err := x.Run(d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("PORTABLE-KERNEL!")) {
			t.Fatalf("platform %d: kernel mismatch: %q", i, got)
		}
		// DRAM holds Kvek ciphertext, not GEK ciphertext or plaintext.
		pfn, _ := d.GPAFrame(uint64(d.MemPages - img.NumPages()))
		raw := make([]byte, 16)
		x.M.Ctl.Mem.ReadRaw(pfn.Addr(), raw)
		if bytes.Equal(raw, []byte("PORTABLE-KERNEL!")) || bytes.Equal(raw, img.Pages[0][:16]) {
			t.Fatal("kernel not re-encrypted under Kvek")
		}
	}
}

func TestGEKWrongPlatformCannotUnwrap(t *testing.T) {
	owner, _ := sev.NewOwner()
	img, gek, err := PrepareGEKGuest(owner, make([]byte, hw.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	_, f1 := newPlatform(t)
	_, f2 := newPlatform(t)
	pub1, _ := f1.M.FW.PublicKey()
	bundle, err := BindGEKGuest(owner, pub1, img, gek)
	if err != nil {
		t.Fatal(err)
	}
	// Platform 2 presenting platform 1's bundle fails the unwrap, and
	// each refusal leaves nothing behind.
	doms, live := len(f2.X.Doms), f2.X.ASIDs.Live()
	for i := 0; i < 10; i++ {
		if _, err := f2.LaunchVMFromGEK("stolen", 32, bundle); err == nil {
			t.Fatal("bundle bound to platform 1 booted on platform 2")
		}
		if len(f2.X.Doms) != doms || f2.X.ASIDs.Live() != live {
			t.Fatalf("refusal %d left %d domains and %d live asids, want %d and %d",
				i, len(f2.X.Doms), f2.X.ASIDs.Live(), doms, live)
		}
	}
}

func TestGEKIOPathWithoutHelperContexts(t *testing.T) {
	x, f := newPlatform(t)
	owner, _ := sev.NewOwner()
	img, gek, err := PrepareGEKGuest(owner, make([]byte, hw.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := f.M.FW.PublicKey()
	bundle, err := BindGEKGuest(owner, pub, img, gek)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.LaunchVMFromGEK("gekio", 64, bundle)
	if err != nil {
		t.Fatal(err)
	}
	// NO SetupIOSession: the guest's own context serves ENC/DEC.
	dk := disk.New(128)
	backend, err := f.AttachProtectedDisk(d, dk, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	backend.SnoopEnabled = true
	if err := x.WriteStartInfo(d); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("GEK-IO-PAYLOAD!!"), disk.SectorSize/16*2)
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		bf, err := xen.NewBlockFrontend(g)
		if err != nil {
			return err
		}
		front := NewSEVFront(g, bf) // same guest driver, new firmware path
		if err := front.WriteSectors(9, payload); err != nil {
			return err
		}
		got := make([]byte, len(payload))
		if err := front.ReadSectors(9, got); err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Error("GEK I/O round trip mismatch")
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(backend.Snoop, []byte("GEK-IO-PAYLOAD!!")) {
		t.Fatal("backend observed plaintext on the GEK I/O path")
	}
	st, _ := f.VM(d)
	if st.IOSessionReady {
		t.Fatal("GEK path should not have created helper contexts")
	}
}

func TestGEKFirmwareStateMachine(t *testing.T) {
	x, f := newPlatform(t)
	_ = x
	defer f.enterTrusted()()
	h, err := f.M.FW.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	// ENC/DEC before SETENC_GEK fail.
	if err := f.M.FW.Enc(h, 0x1000, make([]byte, 16), 0); !errors.Is(err, sev.ErrNoGEK) {
		t.Fatalf("want ErrNoGEK, got %v", err)
	}
	if err := f.M.FW.Dec(h, 0x1000, make([]byte, 16), 0); !errors.Is(err, sev.ErrNoGEK) {
		t.Fatalf("want ErrNoGEK, got %v", err)
	}
	// Alignment checks hold.
	owner, _ := sev.NewOwner()
	pub, _ := f.M.FW.PublicKey()
	var gek sev.GEK
	gek[0] = 1
	wrap, err := owner.WrapGEK(pub, gek)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.M.FW.SetEncGEK(h, wrap, owner.PublicKey(), owner.Nonce()); err != nil {
		t.Fatal(err)
	}
	if err := f.M.FW.Enc(h, 0x1001, make([]byte, 16), 0); !errors.Is(err, sev.ErrNotAligned) {
		t.Fatalf("want ErrNotAligned, got %v", err)
	}
	if err := f.M.FW.DecPage(h, 2, make([]byte, 100), 0); err == nil {
		t.Fatal("short DecPage should fail")
	}
}
