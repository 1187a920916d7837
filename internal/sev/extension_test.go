package sev

import (
	"bytes"
	"errors"
	"testing"

	"fidelius/internal/hw"
)

func TestGEKImagePreparationIsPlatformFree(t *testing.T) {
	owner, err := NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	kernel := bytes.Repeat([]byte("sixteen byte txt"), 300)
	img, gek, err := owner.PrepareGEKImage(kernel)
	if err != nil {
		t.Fatal(err)
	}
	if img.NumPages() != 2 {
		t.Fatalf("pages = %d, want 2", img.NumPages())
	}
	if gek == (GEK{}) {
		t.Fatal("zero GEK")
	}
	for _, p := range img.Pages {
		if bytes.Contains(p, []byte("sixteen byte txt")) {
			t.Fatal("image page holds plaintext")
		}
	}
}

func TestSetEncGEKAndEncDec(t *testing.T) {
	fw, ctl := newFW(t, 32)
	owner, _ := NewOwner()
	pub, _ := fw.PublicKey()

	h, err := fw.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	var gek GEK
	copy(gek[:], bytes.Repeat([]byte{9}, 32))
	wrap, err := owner.WrapGEK(pub, gek)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.SetEncGEK(h, wrap, owner.PublicKey(), owner.Nonce()); err != nil {
		t.Fatal(err)
	}
	if err := fw.LaunchFinish(h); err != nil {
		t.Fatal(err)
	}
	if err := fw.Activate(h, 3); err != nil {
		t.Fatal(err)
	}

	// Guest data in Kvek memory.
	plain := bytes.Repeat([]byte("gek payload data"), 32)
	pa := hw.PFN(5).Addr()
	if err := ctl.Write(hw.Access{PA: pa, Encrypted: true, ASID: 3}, plain); err != nil {
		t.Fatal(err)
	}
	// ENC: Kvek -> GEK, in the *running* state (impossible with SEND).
	ct := make([]byte, len(plain))
	if err := fw.Enc(h, pa, ct, 7); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, []byte("gek payload data")) {
		t.Fatal("ENC output holds plaintext")
	}
	// DEC opens its input in place, so keep the ENC output for the owner.
	offline := append([]byte{}, ct...)
	// DEC back into another Kvek page.
	dst := hw.PFN(6).Addr()
	if err := fw.Dec(h, dst, ct, 7); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(plain))
	if err := ctl.Read(hw.Access{PA: dst, Encrypted: true, ASID: 3}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("ENC/DEC round trip mismatch")
	}
	// The owner can decrypt the ENC output offline with the GEK.
	gekSession(gek).ioOpen(7, offline)
	if !bytes.Equal(offline, plain) {
		t.Fatal("owner-side GEK decryption mismatch")
	}
}

func TestSetEncGEKWrongOwnerFails(t *testing.T) {
	fw, _ := newFW(t, 8)
	owner, _ := NewOwner()
	mallory, _ := NewOwner()
	pub, _ := fw.PublicKey()
	h, _ := fw.LaunchStart(0)
	var gek GEK
	wrap, err := owner.WrapGEK(pub, gek)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.SetEncGEK(h, wrap, mallory.PublicKey(), owner.Nonce()); !errors.Is(err, ErrBadWrap) {
		t.Fatalf("want ErrBadWrap, got %v", err)
	}
}

func TestAttestQuoteBasics(t *testing.T) {
	fw, _ := newFW(t, 8)
	var m, r [32]byte
	m[0], r[0] = 1, 2
	q, err := fw.Attest([]byte("nonce"), m, r)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := fw.AttestationKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(pub, q, []byte("nonce")); err != nil {
		t.Fatal(err)
	}
	// Signature covers the integrity root too.
	bad := *q
	bad.IntegrityRoot[5] ^= 1
	if err := VerifyQuote(pub, &bad, []byte("nonce")); err == nil {
		t.Fatal("root tamper accepted")
	}
	if err := VerifyQuote(pub, nil, []byte("nonce")); err == nil {
		t.Fatal("nil quote accepted")
	}
	// A different platform's key rejects the quote.
	fw2, _ := newFW(t, 8)
	pub2, _ := fw2.AttestationKey()
	if err := VerifyQuote(pub2, q, []byte("nonce")); err == nil {
		t.Fatal("cross-platform quote accepted")
	}
}

func TestAttestRequiresInit(t *testing.T) {
	fw := NewFirmware(hw.NewController(hw.NewMemory(4), 0))
	if _, err := fw.Attest([]byte("n"), [32]byte{}, [32]byte{}); !errors.Is(err, ErrNoAttestKey) {
		t.Fatalf("want ErrNoAttestKey, got %v", err)
	}
	if _, err := fw.AttestationKey(); !errors.Is(err, ErrNoAttestKey) {
		t.Fatalf("want ErrNoAttestKey, got %v", err)
	}
}

func TestFirmwareGuardBlocksAllCommands(t *testing.T) {
	fw, ctl := newFW(t, 8)
	h, err := fw.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	// Install a guard that always denies (Fidelius's, seen from the
	// hypervisor's side).
	fw.Authorize = func() bool { return false }
	if _, err := fw.LaunchStart(0); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("LaunchStart: %v", err)
	}
	if err := fw.Activate(h, 1); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("Activate: %v", err)
	}
	if err := fw.Deactivate(h); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("Deactivate: %v", err)
	}
	if err := fw.Decommission(h); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("Decommission: %v", err)
	}
	if _, err := fw.SendStart(h, nil, nil); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("SendStart: %v", err)
	}
	if err := fw.Enc(h, 0, make([]byte, 16), 0); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("Enc: %v", err)
	}
	if _, err := fw.Attest(nil, [32]byte{}, [32]byte{}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("Attest: %v", err)
	}
	// RECEIVE_START is refused before it unwraps anything: junk keys get
	// the refusal and its one ledger record, exactly as good keys would,
	// so the error cannot tell the caller whether a wrapped blob opens.
	led := ctl.Telem.StartLedger()
	selfPub, _ := fw.PublicKey()
	junk := WrappedKeys{Ciphertext: bytes.Repeat([]byte{1}, 80)}
	if _, err := fw.ReceiveStart(junk, selfPub, []byte("nonce")); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("ReceiveStart with junk keys: %v", err)
	}
	if recs := led.Records(); len(recs) != 1 || recs[0].Class != "sev-unauthorized" {
		t.Errorf("refused ReceiveStart left ledger %+v, want one sev-unauthorized record", recs)
	}
	// Re-authorise: commands work again.
	fw.Authorize = func() bool { return true }
	if err := fw.Activate(h, 1); err != nil {
		t.Errorf("post-reauth Activate: %v", err)
	}
}

// TestDecPageRefusalChargesNothing: a DecPage refused on an unknown
// handle or on a context without a GEK charges no cycle.
func TestDecPageRefusalChargesNothing(t *testing.T) {
	fw, ctl := newFW(t, 8)
	h, err := fw.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, hw.PageSize)
	for _, c := range []struct {
		h    Handle
		want error
	}{{h + 7, ErrBadHandle}, {h, ErrNoGEK}} {
		before := ctl.Cycles.Total()
		if err := fw.DecPage(c.h, 2, page, 0); !errors.Is(err, c.want) {
			t.Fatalf("DecPage on handle %d: got %v, want %v", c.h, err, c.want)
		}
		if d := ctl.Cycles.Total() - before; d != 0 {
			t.Errorf("DecPage refused with %v charged %d cycles", c.want, d)
		}
	}
}
