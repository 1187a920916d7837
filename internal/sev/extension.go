package sev

import (
	"crypto/ecdh"
	"errors"
	"fmt"

	"fidelius/internal/cycles"
	"fidelius/internal/hw"
)

// This file implements the paper's second hardware suggestion (Section 8,
// "Customized keys"): a SETENC_GEK instruction that installs a guest
// encryption key chosen by the guest owner, plus ENC and DEC commands
// that re-encrypt memory ranges between the GEK and the Kvek directly —
// without the SEND/RECEIVE state machine, without the s-dom/r-dom helper
// contexts, and without pre-identifying the single target machine during
// image preparation.
//
// With the GEK extension:
//
//   - the owner encrypts the kernel image under a key of its own choosing
//     (portable to any SETENC_GEK-capable platform), and
//   - the I/O path needs only one firmware context per guest, in the
//     running state.

// GEK is a customized guest encryption key.
type GEK = [32]byte

// ErrNoGEK reports ENC/DEC on a context with no customized key installed.
var ErrNoGEK = errors.New("sev: no customized key (GEK) installed")

// gekSession expands a GEK into the transport session type: ENC and DEC
// use its I/O transform, like SEND_IO and RECEIVE_IO, and never MAC.
func gekSession(key GEK) *session {
	return newSession(TransportKeys{TEK: key})
}

// SetEncGEK installs a customized guest encryption key into the guest's
// firmware context — the proposed SETENC_GEK instruction. The key arrives
// wrapped under the owner-platform ECDH agreement, so the hypervisor
// relaying it learns nothing.
func (f *Firmware) SetEncGEK(h Handle, wrapped WrappedKeys, ownerPub *ecdh.PublicKey, nonce []byte) error {
	c, err := f.enter("setenc-gek", h)
	if err != nil {
		return err
	}
	tk, err := openWrappedKeys(f.id, ownerPub, nonce, wrapped)
	if err != nil {
		return err
	}
	if c.gek != nil {
		c.gek.scrub()
	}
	c.gek = gekSession(tk.TEK)
	f.exit("setenc-gek", c)
	return nil
}

// Enc re-encrypts len(dst) bytes of guest memory at pa from Kvek to the
// GEK, sealing them into dst, which the caller owns — the proposed ENC
// instruction. Unlike SEND_UPDATE it works in the running state.
func (f *Firmware) Enc(h Handle, pa hw.PhysAddr, dst []byte, seq uint64) error {
	c, err := f.enter("enc", h)
	if err != nil {
		return err
	}
	return f.ioOut(c, c.gek, "enc", h, pa, dst, seq)
}

// Dec decrypts GEK ciphertext and writes it Kvek-encrypted at pa — the
// proposed DEC instruction. Also legal in the running state. It opens
// data in place: on success data holds the Kvek ciphertext written at
// pa, never the plaintext.
func (f *Firmware) Dec(h Handle, pa hw.PhysAddr, data []byte, seq uint64) error {
	c, err := f.enter("dec", h)
	if err != nil {
		return err
	}
	return f.ioIn(c, c.gek, "dec", h, pa, data, seq)
}

// DecPage is the page-granularity DEC used to boot from a GEK-encrypted
// image: one command per page, seq = page index within the image. The
// firmware copies the page in (the charged PageCopy) and opens the copy,
// so data is left untouched. A DecPage refused at entry charges nothing.
func (f *Firmware) DecPage(h Handle, pfn hw.PFN, data []byte, seq uint64) error {
	if len(data) != hw.PageSize {
		return fmt.Errorf("sev: DecPage needs a full page, got %d bytes", len(data))
	}
	c, err := f.enter("dec", h)
	if err != nil {
		return err
	}
	f.charge(cycles.SEVCommand + cycles.PageCopy)
	return f.ioIn(c, c.gek, "dec", h, pfn.Addr(), append([]byte(nil), data...), seq)
}

// GEKImage is a portable encrypted kernel image: pages under the owner's
// GEK, usable on any platform the owner later authorises by wrapping the
// GEK for it. Confidentiality only — pair with the integrity engine for
// tamper evidence (both Section 8 suggestions compose).
type GEKImage struct {
	Pages [][]byte
}

// NumPages reports the image size in pages.
func (img *GEKImage) NumPages() int { return len(img.Pages) }

// PrepareGEKImage encrypts a kernel under a fresh GEK. Unlike
// PrepareImage, no platform key is needed at build time.
func (o *Owner) PrepareGEKImage(kernel []byte) (*GEKImage, GEK, error) {
	gek, err := randomKey()
	if err != nil {
		return nil, GEK{}, err
	}
	s := gekSession(gek)
	pages := (len(kernel) + hw.PageSize - 1) / hw.PageSize
	img := &GEKImage{}
	for i := 0; i < pages; i++ {
		page := make([]byte, hw.PageSize)
		copy(page, kernel[i*hw.PageSize:])
		s.ioSeal(uint64(i), page)
		img.Pages = append(img.Pages, page)
	}
	return img, gek, nil
}

// WrapGEK wraps the GEK for a specific platform at deployment time — the
// late-binding step the extension enables.
func (o *Owner) WrapGEK(platformPub *ecdh.PublicKey, gek GEK) (WrappedKeys, error) {
	kek, err := deriveKEK(o.id, platformPub, o.nonce[:])
	if err != nil {
		return WrappedKeys{}, err
	}
	// Reuse the TEK slot of the transport wrap; TIK is unused.
	return wrapKeys(kek, TransportKeys{TEK: gek})
}
