package core

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"io"

	"fidelius/internal/hw"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

// This file implements the paper's Section 8 hardware suggestions on the
// Fidelius side:
//
//  1. Hardware-based integrity checking (Bonsai Merkle Tree): protected
//     guest pages are tracked by the hw.Integrity engine, so rowhammer
//     flips and DMA overwrites are *detected* rather than merely
//     scrambled by encryption.
//  2. Customized keys (SETENC_GEK / ENC / DEC): portable encrypted kernel
//     images, late binding of images to platforms, and an I/O encryption
//     path that needs no s-dom/r-dom helper contexts.

// EnableIntegrity places every page of a protected VM under the
// Bonsai-Merkle integrity engine. Subsequent physical tampering of those
// pages (rowhammer, DMA writes) is detected at the next read.
func (f *Fidelius) EnableIntegrity(d *xen.Domain) error {
	ctl := f.M.Ctl
	if ctl.Integ == nil {
		var key [32]byte
		if _, err := io.ReadFull(rand.Reader, key[:]); err != nil {
			return err
		}
		ctl.Integ = hw.NewIntegrity(ctl.Mem, key)
	}
	for _, pfn := range d.Frames {
		if pfn == 0 {
			continue
		}
		if err := ctl.Integ.Protect(pfn); err != nil {
			return err
		}
	}
	return nil
}

// IntegrityRoot reports the engine's current tree root (the value a
// hardware BMT keeps on-chip), for attestation.
func (f *Fidelius) IntegrityRoot() ([32]byte, bool) {
	if f.M.Ctl.Integ == nil {
		return [32]byte{}, false
	}
	return f.M.Ctl.Integ.Root(), true
}

// GEKBundle is the portable counterpart of GuestBundle: the kernel image
// is encrypted under the owner's customized key and can be deployed to
// any platform by wrapping the GEK for it at deployment time.
type GEKBundle struct {
	Image    *sev.GEKImage
	GEKWrap  sev.WrappedKeys
	OwnerPub *ecdh.PublicKey
	Nonce    []byte
}

// PrepareGEKGuest builds a portable image; BindGEKGuest wraps its key for
// one platform. The two steps are independent — the late binding the
// paper asks for.
func PrepareGEKGuest(owner *sev.Owner, kernel []byte) (*sev.GEKImage, sev.GEK, error) {
	return owner.PrepareGEKImage(kernel)
}

// BindGEKGuest authorises one platform to run a previously prepared
// image.
func BindGEKGuest(owner *sev.Owner, platformPub *ecdh.PublicKey, img *sev.GEKImage, gek sev.GEK) (*GEKBundle, error) {
	wrap, err := owner.WrapGEK(platformPub, gek)
	if err != nil {
		return nil, err
	}
	return &GEKBundle{
		Image:    img,
		GEKWrap:  wrap,
		OwnerPub: owner.PublicKey(),
		Nonce:    owner.Nonce(),
	}, nil
}

// LaunchVMFromGEK boots a protected VM from a portable GEK image using
// the extension instructions: LAUNCH_START creates the context,
// SETENC_GEK installs the customized key, DEC re-encrypts each image page
// in place with the fresh Kvek, LAUNCH_FINISH and ACTIVATE complete the
// boot. The same firmware context also serves the I/O path afterwards —
// no helper contexts needed.
func (f *Fidelius) LaunchVMFromGEK(name string, memPages int, b *GEKBundle) (*xen.Domain, error) {
	defer f.enterTrusted()()
	if b.Image.NumPages() > memPages {
		return nil, fmt.Errorf("core: kernel image (%d pages) exceeds VM memory", b.Image.NumPages())
	}
	start := func() (sev.Handle, error) { return f.M.FW.LaunchStart(0) }
	return f.admitVM(name, memPages, start, func(p *provisional) error {
		if err := f.M.FW.SetEncGEK(p.h, b.GEKWrap, b.OwnerPub, b.Nonce); err != nil {
			return err
		}
		p.gek = true
		base := uint64(memPages - b.Image.NumPages())
		for i, page := range b.Image.Pages {
			pfn, ok := p.d.GPAFrame(base + uint64(i))
			if !ok {
				return fmt.Errorf("core: kernel gfn %d unbacked", base+uint64(i))
			}
			if err := f.M.FW.DecPage(p.h, pfn, page, uint64(i)); err != nil {
				return err
			}
		}
		return f.M.FW.LaunchFinish(p.h)
	})
}
