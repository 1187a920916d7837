package sev

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"io"

	"fidelius/internal/hw"
)

// Owner is the guest owner's trusted offline environment. The paper's VM
// preparation step (Section 4.3.2) has the owner run the SEND APIs on a
// trusted machine to produce an encrypted kernel image, the wrapped
// transport keys Kwrap, and the measurement Mvm; the target platform later
// replays them through RECEIVE_START/UPDATE/FINISH. Owner implements the
// sender side in pure software with the same cryptography.
type Owner struct {
	id    *identity
	nonce [16]byte
}

// NewOwner creates an owner identity with a fresh ECDH key and session
// nonce (the paper's Nvm).
func NewOwner() (*Owner, error) {
	id, err := newIdentity()
	if err != nil {
		return nil, err
	}
	o := &Owner{id: id}
	if _, err := io.ReadFull(rand.Reader, o.nonce[:]); err != nil {
		return nil, err
	}
	return o, nil
}

// PublicKey returns the owner's public ECDH key (public data).
func (o *Owner) PublicKey() *ecdh.PublicKey { return o.id.public() }

// Nonce returns the session nonce (public data).
func (o *Owner) Nonce() []byte { return o.nonce[:] }

// EncryptedImage is an encrypted kernel image: a sequence of page-sized
// transport packets plus the sender-side measurement. Everything here is
// safe to hand to the untrusted hypervisor; only a platform that can
// unwrap Kwrap can recover the plaintext.
type EncryptedImage struct {
	Pages       []Packet
	Measurement Measurement
}

// NumPages reports the image size in pages.
func (img *EncryptedImage) NumPages() int { return len(img.Pages) }

// PrepareImage encrypts a kernel image for the platform identified by
// platformPub. The image is padded to a whole number of pages. It returns
// the image and the wrapped transport keys (Kwrap) that Fidelius needs to
// boot it. kernel is left as it was: the image is sealed in one
// page-rounded copy of it.
func (o *Owner) PrepareImage(platformPub *ecdh.PublicKey, kernel []byte) (*EncryptedImage, WrappedKeys, error) {
	buf := make([]byte, (len(kernel)+hw.PageSize-1)/hw.PageSize*hw.PageSize)
	copy(buf, kernel)
	return o.SealImage(platformPub, buf)
}

// SealImage is PrepareImage for a caller that hands over the kernel
// buffer: buf, a whole number of pages, is encrypted in place, page by
// page, and the image's packets alias it.
func (o *Owner) SealImage(platformPub *ecdh.PublicKey, buf []byte) (*EncryptedImage, WrappedKeys, error) {
	if len(buf)%hw.PageSize != 0 {
		return nil, WrappedKeys{}, fmt.Errorf("sev: a %d-byte image is not whole pages", len(buf))
	}
	tk, w, err := newWrappedKeys(o.id, platformPub, o.nonce[:])
	if err != nil {
		return nil, WrappedKeys{}, err
	}
	s := newSession(tk)
	img := &EncryptedImage{Pages: make([]Packet, len(buf)/hw.PageSize)}
	for i := range img.Pages {
		page := buf[i*hw.PageSize : (i+1)*hw.PageSize : (i+1)*hw.PageSize]
		img.Pages[i] = sealPacket(s, uint64(i), page)
		img.Measurement = measureChain(img.Measurement, img.Pages[i].Tag)
	}
	return img, w, nil
}
