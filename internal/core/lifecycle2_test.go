package core

import (
	"bytes"
	"errors"
	"testing"

	"fidelius/internal/hw"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

func TestAttestation(t *testing.T) {
	x, f := newPlatform(t)
	nonce := []byte("verifier-nonce-123")
	q, err := f.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if q.HVMeasurement != f.HypervisorMeasurement {
		t.Fatal("quote carries the wrong measurement")
	}
	pub, err := x.M.FW.AttestationKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := sev.VerifyQuote(pub, q, nonce); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}
	// Replay under a different nonce fails.
	if err := sev.VerifyQuote(pub, q, []byte("other")); err == nil {
		t.Fatal("stale quote accepted")
	}
	// A tampered measurement fails.
	bad := *q
	bad.HVMeasurement[0] ^= 1
	if err := sev.VerifyQuote(pub, &bad, nonce); err == nil {
		t.Fatal("tampered quote accepted")
	}
	// The hypervisor cannot mint quotes: the guard rejects it.
	if _, err := x.M.FW.Attest(nonce, [32]byte{}, [32]byte{}); !errors.Is(err, sev.ErrUnauthorized) {
		t.Fatalf("hypervisor-minted quote: %v", err)
	}
}

func TestAttestationIncludesIntegrityRoot(t *testing.T) {
	_, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("att", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := f.Attest([]byte("n1"))
	if err != nil {
		t.Fatal(err)
	}
	if q1.IntegrityRoot != ([32]byte{}) {
		t.Fatal("integrity root should be zero before EnableIntegrity")
	}
	if err := f.EnableIntegrity(d); err != nil {
		t.Fatal(err)
	}
	q2, err := f.Attest([]byte("n2"))
	if err != nil {
		t.Fatal(err)
	}
	if q2.IntegrityRoot == ([32]byte{}) {
		t.Fatal("integrity root missing from quote")
	}
}

func TestShutdownWithIOSession(t *testing.T) {
	x, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("io-shutdown", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetupIOSession(d); err != nil {
		t.Fatal(err)
	}
	// Idempotent setup.
	if err := f.SetupIOSession(d); err != nil {
		t.Fatal(err)
	}
	if err := f.ShutdownVM(d); err != nil {
		t.Fatal(err)
	}
	if _, ok := x.Dom(d.ID); ok {
		t.Fatal("domain survived shutdown")
	}
	// Shutdown of a non-Fidelius domain errors cleanly.
	plain, _ := x.CreateDomain(xen.DomainConfig{Name: "plain", MemPages: 8})
	if err := f.ShutdownVM(plain); err == nil {
		t.Fatal("shutting down an unmanaged domain should error")
	}
}

func TestLaunchVMImageTooLarge(t *testing.T) {
	_, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, 40*hw.PageSize), nil)
	if _, err := f.LaunchVM("big", 16, b); err == nil {
		t.Fatal("oversized image accepted")
	}
}

func TestSetupIOSessionUnmanagedDomain(t *testing.T) {
	x, f := newPlatform(t)
	d, _ := x.CreateDomain(xen.DomainConfig{Name: "um", MemPages: 8})
	if err := f.SetupIOSession(d); err == nil {
		t.Fatal("IO session on unmanaged domain should error")
	}
}

func TestMultipleProtectedVMsScheduled(t *testing.T) {
	// Shadow state separation under interleaved scheduling: each VM's
	// registers and VMCB must stay its own.
	x, f := newPlatform(t)
	var doms []*xen.Domain
	for i := 0; i < 3; i++ {
		b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
		d, err := f.LaunchVM("multi", 32, b)
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
		marker := uint64(0x1000 + i)
		x.StartVCPU(d, func(g *xen.GuestEnv) error {
			g.Regs[6] = marker
			for r := 0; r < 4; r++ {
				if _, err := g.Hypercall(xen.HCVoid); err != nil {
					return err
				}
				if g.Regs[6] != marker {
					t.Errorf("register cross-contamination: %#x vs %#x", g.Regs[6], marker)
				}
			}
			return g.Write(0x5000, []byte{byte(marker)})
		})
	}
	if errs := x.Schedule(doms); len(errs) != 0 {
		t.Fatalf("scheduler errors: %v", errs)
	}
}

func TestGuestPagingUnderFidelius(t *testing.T) {
	// The full two-dimensional path under protection: a guest builds its
	// own page tables, enables paging, controls C-bits per page, and
	// shares a plaintext page — all while Fidelius polices the NPT.
	x, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("paging", 64, b)
	if err != nil {
		t.Fatal(err)
	}
	const plainGFN = 9
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		root, err := g.BuildIdentityPT(map[uint64]bool{plainGFN: true})
		if err != nil {
			return err
		}
		g.EnablePaging(root)
		if err := g.Write(5<<hw.PageShift, []byte("private via paging")); err != nil {
			return err
		}
		if err := g.Write(plainGFN<<hw.PageShift, []byte("deliberately plain")); err != nil {
			return err
		}
		buf := make([]byte, 18)
		if err := g.Read(5<<hw.PageShift, buf); err != nil {
			return err
		}
		if string(buf) != "private via paging" {
			t.Errorf("paged read-back: %q", buf)
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	// DRAM: C-bit page is ciphertext, C=0 page plaintext — guest C-bit
	// control survives Fidelius's NPT policing.
	p5, _ := d.GPAFrame(5)
	p9, _ := d.GPAFrame(plainGFN)
	raw := make([]byte, 18)
	x.M.Ctl.Mem.ReadRaw(p5.Addr(), raw)
	if bytes.Equal(raw, []byte("private via paging")) {
		t.Fatal("C-bit page plaintext in DRAM")
	}
	x.M.Ctl.Mem.ReadRaw(p9.Addr(), raw)
	if !bytes.Equal(raw, []byte("deliberately plain")) {
		t.Fatal("C=0 page not plaintext in DRAM")
	}
	// The hypervisor still cannot touch either page through its own
	// mapping (unmapped by the PIT claim).
	if err := x.M.CPU.ReadVA(uint64(p9.Addr()), make([]byte, 4)); err == nil {
		t.Fatal("hypervisor mapped a guest page")
	}
}
