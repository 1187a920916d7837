package core

import (
	"bytes"
	"crypto/ecdh"
	"encoding/gob"
	"errors"
	"fmt"

	"fidelius/internal/hw"
	"fidelius/internal/sev"
)

// Wire formats: guest bundles and migration snapshots travel between
// machines (the owner's trusted environment → the platform; origin →
// target), so they need stable serialisation. ECDH public keys are
// carried as their SEC1 encoding.
//
// Everything arriving through UnmarshalBinary is attacker-supplied: the
// hypervisor relays these blobs, so a malformed header must fail fast
// here rather than drive FW.ReceiveStart/ReceiveUpdatePages into allocating
// for a bogus page count or unwrapping a truncated key blob.

// ErrBadBundle reports a serialized bundle that fails structural
// validation before any cryptography is attempted.
var ErrBadBundle = errors.New("core: malformed bundle")

const (
	// wrappedKeyLen is AES-256-GCM(TEK || TIK): 64 plaintext bytes plus
	// the 16-byte GCM tag.
	wrappedKeyLen = 64 + 16
	// sessionNonceLen is the owner session nonce Nvm.
	sessionNonceLen = 16
	// maxBundlePages caps the guest size a bundle may claim (64 GiB of
	// 4 KiB pages) so a hostile header cannot drive huge allocations.
	maxBundlePages = 1 << 24
	// maxBundleName bounds the advertised VM name.
	maxBundleName = 256
)

func checkWrap(what string, w sev.WrappedKeys) error {
	if len(w.Ciphertext) != wrappedKeyLen {
		return fmt.Errorf("%w: %s ciphertext is %d bytes, want %d",
			ErrBadBundle, what, len(w.Ciphertext), wrappedKeyLen)
	}
	return nil
}

func checkNonce(what string, nonce []byte) error {
	if len(nonce) != sessionNonceLen {
		return fmt.Errorf("%w: %s nonce is %d bytes, want %d",
			ErrBadBundle, what, len(nonce), sessionNonceLen)
	}
	return nil
}

func checkPackets(what string, pkts []sev.Packet) error {
	for i, p := range pkts {
		if len(p.Data) != hw.PageSize {
			return fmt.Errorf("%w: %s packet %d carries %d bytes, want a full page",
				ErrBadBundle, what, i, len(p.Data))
		}
	}
	return nil
}

type guestBundleWire struct {
	Image     *sev.EncryptedImage
	Kwrap     sev.WrappedKeys
	OwnerPub  []byte
	Nonce     []byte
	DiskImage []byte
}

type migrationBundleWire struct {
	Name     string
	MemPages int
	Kwrap    sev.WrappedKeys
	Nonce    []byte
	Packets  []sev.Packet
	Mvm      sev.Measurement
}

type gekBundleWire struct {
	Image    *sev.GEKImage
	GEKWrap  sev.WrappedKeys
	OwnerPub []byte
	Nonce    []byte
}

func encodePub(pub *ecdh.PublicKey) []byte {
	if pub == nil {
		return nil
	}
	return pub.Bytes()
}

func decodePub(b []byte) (*ecdh.PublicKey, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("core: missing public key")
	}
	return ecdh.P256().NewPublicKey(b)
}

// MarshalBinary implements encoding.BinaryMarshaler for GuestBundle.
func (b *GuestBundle) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(guestBundleWire{
		Image:     b.Image,
		Kwrap:     b.Kwrap,
		OwnerPub:  encodePub(b.OwnerPub),
		Nonce:     b.Nonce,
		DiskImage: b.DiskImage,
	})
	return buf.Bytes(), err
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for GuestBundle.
func (b *GuestBundle) UnmarshalBinary(data []byte) error {
	var w guestBundleWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if w.Image == nil {
		return fmt.Errorf("%w: guest bundle has no image", ErrBadBundle)
	}
	if n := w.Image.NumPages(); n == 0 || n > maxBundlePages {
		return fmt.Errorf("%w: guest image claims %d pages", ErrBadBundle, n)
	}
	if err := checkPackets("guest image", w.Image.Pages); err != nil {
		return err
	}
	if err := checkWrap("guest bundle", w.Kwrap); err != nil {
		return err
	}
	if err := checkNonce("guest bundle", w.Nonce); err != nil {
		return err
	}
	pub, err := decodePub(w.OwnerPub)
	if err != nil {
		return err
	}
	*b = GuestBundle{
		Image:     w.Image,
		Kwrap:     w.Kwrap,
		OwnerPub:  pub,
		Nonce:     w.Nonce,
		DiskImage: w.DiskImage,
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for MigrationBundle.
func (b *MigrationBundle) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(migrationBundleWire{
		Name:     b.Name,
		MemPages: b.MemPages,
		Kwrap:    b.Kwrap,
		Nonce:    b.Nonce,
		Packets:  b.Packets,
		Mvm:      b.Mvm,
	})
	return buf.Bytes(), err
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for
// MigrationBundle.
func (b *MigrationBundle) UnmarshalBinary(data []byte) error {
	var w migrationBundleWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if len(w.Name) > maxBundleName {
		return fmt.Errorf("%w: migration bundle name is %d bytes", ErrBadBundle, len(w.Name))
	}
	if w.MemPages <= 0 || w.MemPages > maxBundlePages {
		return fmt.Errorf("%w: migration bundle claims %d pages", ErrBadBundle, w.MemPages)
	}
	if len(w.Packets) > w.MemPages {
		return fmt.Errorf("%w: migration bundle carries %d packets for a %d-page guest",
			ErrBadBundle, len(w.Packets), w.MemPages)
	}
	if err := checkPackets("migration bundle", w.Packets); err != nil {
		return err
	}
	if err := checkWrap("migration bundle", w.Kwrap); err != nil {
		return err
	}
	if err := checkNonce("migration bundle", w.Nonce); err != nil {
		return err
	}
	*b = MigrationBundle{
		Name:     w.Name,
		MemPages: w.MemPages,
		Kwrap:    w.Kwrap,
		Nonce:    w.Nonce,
		Packets:  w.Packets,
		Mvm:      w.Mvm,
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for GEKBundle.
func (b *GEKBundle) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gekBundleWire{
		Image:    b.Image,
		GEKWrap:  b.GEKWrap,
		OwnerPub: encodePub(b.OwnerPub),
		Nonce:    b.Nonce,
	})
	return buf.Bytes(), err
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for GEKBundle.
func (b *GEKBundle) UnmarshalBinary(data []byte) error {
	var w gekBundleWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if w.Image == nil {
		return fmt.Errorf("%w: GEK bundle has no image", ErrBadBundle)
	}
	if n := w.Image.NumPages(); n == 0 || n > maxBundlePages {
		return fmt.Errorf("%w: GEK image claims %d pages", ErrBadBundle, n)
	}
	for i, p := range w.Image.Pages {
		if len(p) != hw.PageSize {
			return fmt.Errorf("%w: GEK image page %d is %d bytes, want a full page",
				ErrBadBundle, i, len(p))
		}
	}
	if err := checkWrap("GEK bundle", w.GEKWrap); err != nil {
		return err
	}
	if err := checkNonce("GEK bundle", w.Nonce); err != nil {
		return err
	}
	pub, err := decodePub(w.OwnerPub)
	if err != nil {
		return err
	}
	*b = GEKBundle{
		Image:    w.Image,
		GEKWrap:  w.GEKWrap,
		OwnerPub: pub,
		Nonce:    w.Nonce,
	}
	return nil
}
