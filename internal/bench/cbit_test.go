package bench

import (
	"bytes"
	"testing"

	"fidelius/internal/hw"
	"fidelius/internal/xen"
)

// TestPagingGuestWithoutSEV: a guest without SEV has no key of its own,
// so the C-bits of its page tables never count; only the NPT C-bit (the
// host SME key of Fidelius-enc, Section 7.1) can encrypt its memory,
// table walks included. A canary written before paging must read back
// through the identity page table in every configuration.
func TestPagingGuestWithoutSEV(t *testing.T) {
	const gfn = 40
	canary := []byte("canary!!")
	for _, cfg := range Configs {
		t.Run(cfg, func(t *testing.T) {
			p, err := NewPlatform(cfg, 128)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(canary))
			p.X.StartVCPU(p.D, func(g *xen.GuestEnv) error {
				if err := g.Write(gfn<<hw.PageShift, canary); err != nil {
					return err
				}
				root, err := g.BuildIdentityPT(nil)
				if err != nil {
					return err
				}
				g.EnablePaging(root)
				return g.Read(gfn<<hw.PageShift, got)
			})
			if err := p.X.Run(p.D); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, canary) {
				t.Fatalf("canary reads %q after paging, want %q", got, canary)
			}
		})
	}
}

// TestSharedPageAfterSMEStaysPlain: a page shared after EnableSME still
// crosses the shared window in plaintext. The window is the host-visible
// mapping, so it ignores the NPT C-bit the page kept from EnableSME.
func TestSharedPageAfterSMEStaysPlain(t *testing.T) {
	p, err := NewPlatform(ConfigFideliusEnc, 32)
	if err != nil {
		t.Fatal(err)
	}
	grantee, err := p.X.CreateDomain(xen.DomainConfig{Name: "grantee", MemPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.X.Interpose.EnableSME(grantee); err != nil {
		t.Fatal(err)
	}
	const gfn = 7
	msg := []byte("shared after SME")
	var ref uint64
	p.X.StartVCPU(p.D, func(g *xen.GuestEnv) error {
		if err := g.WriteUnencrypted(gfn<<hw.PageShift, msg); err != nil {
			return err
		}
		if _, err := g.Hypercall(xen.HCPreSharingOp, uint64(grantee.ID), gfn, 1, 0); err != nil {
			return err
		}
		ref, err = g.Hypercall(xen.HCGrantTableOp, xen.GntOpGrant, uint64(grantee.ID), gfn, 0)
		return err
	})
	if err := p.X.Run(p.D); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	p.X.StartVCPU(grantee, func(g *xen.GuestEnv) error {
		dst := uint64(grantee.MemPages) // first grant-window slot
		if _, err := g.Hypercall(xen.HCGrantTableOp, xen.GntOpMap, uint64(p.D.ID), ref, dst); err != nil {
			return err
		}
		return g.ReadUnencrypted(dst<<hw.PageShift, got)
	})
	if err := p.X.Run(grantee); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("grantee reads %q through the shared window, want %q", got, msg)
	}
	// The window ignores the NPT C-bit on the way in too: the granter's
	// frame holds plaintext, not host-key ciphertext.
	pfn, _ := p.D.GPAFrame(gfn)
	raw := make([]byte, len(msg))
	if err := p.X.M.Ctl.Mem.ReadRaw(pfn.Addr(), raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, msg) {
		t.Fatalf("shared frame holds %q in DRAM, want plaintext %q", raw, msg)
	}
}
