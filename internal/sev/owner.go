package sev

import (
	"crypto/ecdh"
	"crypto/rand"
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
	priv  *ecdh.PrivateKey
	nonce [16]byte
}

// NewOwner creates an owner identity with a fresh ECDH key and session
// nonce (the paper's Nvm).
func NewOwner() (*Owner, error) {
	priv, err := GenerateIdentity()
	if err != nil {
		return nil, err
	}
	o := &Owner{priv: priv}
	if _, err := io.ReadFull(rand.Reader, o.nonce[:]); err != nil {
		return nil, err
	}
	return o, nil
}

// PublicKey returns the owner's public ECDH key (public data).
func (o *Owner) PublicKey() *ecdh.PublicKey { return o.priv.PublicKey() }

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
// boot it.
func (o *Owner) PrepareImage(platformPub *ecdh.PublicKey, kernel []byte) (*EncryptedImage, WrappedKeys, error) {
	tk, w, err := newWrappedKeys(o.priv, platformPub, o.nonce[:])
	if err != nil {
		return nil, WrappedKeys{}, err
	}
	s := newSession(tk)
	pages := (len(kernel) + hw.PageSize - 1) / hw.PageSize
	img := &EncryptedImage{}
	for i := 0; i < pages; i++ {
		page := make([]byte, hw.PageSize)
		copy(page, kernel[i*hw.PageSize:])
		pkt := sealPacket(s, uint64(i), page)
		img.Pages = append(img.Pages, pkt)
		img.Measurement = measureChain(img.Measurement, pkt.Tag)
	}
	return img, w, nil
}
