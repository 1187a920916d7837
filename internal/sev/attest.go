package sev

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Remote attestation: the paper's system initialisation "leverages
// existing hardware support to issue a measurement on [Fidelius's]
// integrity, which can be used in remote attestation to verify its
// validity" (Section 4.3.1). The firmware holds an attestation signing
// key (the PSP's endorsement identity); quotes bind a caller nonce, the
// hypervisor-code measurement and — when the Section 8 integrity engine
// runs — the current Merkle root.
type attestKey struct {
	priv *ecdsa.PrivateKey
}

// Quote is a signed attestation statement. VMMeasurement is zero on
// platform quotes; guest-bound quotes (AttestGuest) fill it with the
// launch measurement held in the guest's firmware context, binding the
// statement to one specific VM image.
type Quote struct {
	Nonce         []byte
	HVMeasurement [32]byte
	IntegrityRoot [32]byte
	VMMeasurement [32]byte
	Sig           []byte // ASN.1 ECDSA signature over the digest
}

// digest folds the quote fields into the signed hash.
func (q *Quote) digest() [32]byte {
	h := sha256.New()
	h.Write([]byte("fidelius-quote-v1"))
	h.Write(q.Nonce)
	h.Write(q.HVMeasurement[:])
	h.Write(q.IntegrityRoot[:])
	h.Write(q.VMMeasurement[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ErrNoAttestKey reports attestation before platform initialisation.
var ErrNoAttestKey = errors.New("sev: attestation key not provisioned")

func (f *Firmware) attestPriv() (*ecdsa.PrivateKey, error) {
	if !f.initialized {
		return nil, ErrNoAttestKey
	}
	if f.attest == nil {
		priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			return nil, err
		}
		f.attest = &attestKey{priv: priv}
	}
	return f.attest.priv, nil
}

// AttestationKey returns the platform's attestation public key, which a
// remote verifier obtains out of band (manufacturer certificate chain).
func (f *Firmware) AttestationKey() (*ecdsa.PublicKey, error) {
	priv, err := f.attestPriv()
	if err != nil {
		return nil, err
	}
	return &priv.PublicKey, nil
}

// sign completes a quote with the platform's attestation signature.
func (f *Firmware) sign(q *Quote) error {
	priv, err := f.attestPriv()
	if err != nil {
		return err
	}
	d := q.digest()
	sig, err := ecdsa.SignASN1(rand.Reader, priv, d[:])
	if err != nil {
		return err
	}
	q.Sig = sig
	return nil
}

// Attest signs a quote over the supplied measurements. Like all guest
// context commands it honours the authorization guard: once Fidelius owns
// the SEV interface, the hypervisor cannot mint quotes.
func (f *Firmware) Attest(nonce []byte, hvMeasurement, integrityRoot [32]byte) (*Quote, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	q := &Quote{
		Nonce:         append([]byte{}, nonce...),
		HVMeasurement: hvMeasurement,
		IntegrityRoot: integrityRoot,
	}
	if err := f.sign(q); err != nil {
		return nil, err
	}
	if f.auditing() {
		f.audit("attest-quote", 0,
			fmt.Sprintf("quote issued: hv measurement %x.., integrity root %x..",
				hvMeasurement[:4], integrityRoot[:4]))
	}
	return q, nil
}

// AttestGuest signs a quote additionally bound to one guest: the
// VMMeasurement field carries the launch measurement accumulated in the
// guest's firmware context, so a remote client can check the running VM
// was built from exactly the image it expects before provisioning
// secrets ("Insecure Until Proven Updated" is the attack this blocks —
// verify first, then send keys). The context must be past its launch or
// receive protocol: a running guest retains the measurement RECEIVE_FINISH
// verified; contexts mid-transport have had it scrubbed or not yet folded.
func (f *Firmware) AttestGuest(h Handle, nonce []byte, hvMeasurement, integrityRoot [32]byte) (*Quote, error) {
	c, err := f.enter("attest-guest", h)
	if err != nil {
		return nil, err
	}
	q := &Quote{
		Nonce:         append([]byte{}, nonce...),
		HVMeasurement: hvMeasurement,
		IntegrityRoot: integrityRoot,
		VMMeasurement: [32]byte(c.measure),
	}
	if err := f.sign(q); err != nil {
		return nil, err
	}
	f.exit("attest-guest", c)
	if f.auditing() {
		f.audit("attest-quote", 0,
			fmt.Sprintf("guest quote issued: handle %d, vm measurement %x..",
				uint32(h), c.measure[:4]))
	}
	return q, nil
}

// VerifyQuote checks a quote against a platform's attestation key and the
// verifier's nonce.
func VerifyQuote(pub *ecdsa.PublicKey, q *Quote, nonce []byte) error {
	if q == nil {
		return errors.New("sev: nil quote")
	}
	if string(q.Nonce) != string(nonce) {
		return fmt.Errorf("sev: quote nonce mismatch")
	}
	d := q.digest()
	if !ecdsa.VerifyASN1(pub, d[:], q.Sig) {
		return errors.New("sev: quote signature invalid")
	}
	return nil
}
