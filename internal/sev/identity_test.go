package sev

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"sync"
	"testing"

	"fidelius/internal/hw"
)

// TestAgreementMemoKEK: the KEK derived from a remembered agreement is
// the one a fresh agreement gives, and the one the peer derives.
func TestAgreementMemoKEK(t *testing.T) {
	id, err := newIdentity()
	if err != nil {
		t.Fatal(err)
	}
	peer, err := newIdentity()
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("session-nonce")
	first, err := deriveKEK(id, peer.public(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	if len(id.shared) != 1 {
		t.Fatalf("memo holds %d agreements after one, want 1", len(id.shared))
	}
	hit, err := deriveKEK(id, peer.public(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &identity{priv: id.priv, shared: map[string][]byte{}}
	want, err := deriveKEK(fresh, peer.public(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := deriveKEK(peer, id.public(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	if first != want || hit != want || theirs != want {
		t.Fatal("a remembered agreement gave a different KEK from a fresh one")
	}
	other, err := deriveKEK(id, peer.public(), []byte("another-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if other == want {
		t.Fatal("the KEK ignores the session nonce")
	}
}

// TestOwnersShareNoAgreement: two owners wrapping for one platform each
// remember their own secret, the platform remembers one per owner, and
// neither owner's agreement opens the other's wrap.
func TestOwnersShareNoAgreement(t *testing.T) {
	fw, _ := newFW(t, 8)
	platformPub, _ := fw.PublicKey()
	alice, _ := NewOwner()
	bob, _ := NewOwner()
	_, wa, err := alice.PrepareImage(platformPub, make([]byte, hw.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	_, wb, err := bob.PrepareImage(platformPub, make([]byte, hw.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	key := string(platformPub.Bytes())
	if bytes.Equal(alice.id.shared[key], bob.id.shared[key]) {
		t.Fatal("two owners hold the same agreement with the platform")
	}
	if _, err := fw.ReceiveStart(wa, alice.PublicKey(), alice.Nonce()); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ReceiveStart(wb, bob.PublicKey(), bob.Nonce()); err != nil {
		t.Fatal(err)
	}
	if len(fw.id.shared) != 2 {
		t.Fatalf("the platform remembers %d agreements for two owners, want 2", len(fw.id.shared))
	}
	// Bob's wrap presented as Alice's, with her nonce or his, fails.
	for _, nonce := range [][]byte{alice.Nonce(), bob.Nonce()} {
		if _, err := fw.ReceiveStart(wb, alice.PublicKey(), nonce); !errors.Is(err, ErrBadWrap) {
			t.Fatalf("bob's wrap under alice's agreement: want ErrBadWrap, got %v", err)
		}
	}
}

// TestRememberedAgreementStillBindsTheNonce: after the platform has
// agreed with an owner once, a wrap opened under another nonce still
// fails, and a failed agreement is not remembered.
func TestRememberedAgreementStillBindsTheNonce(t *testing.T) {
	fw, _ := newFW(t, 8)
	platformPub, _ := fw.PublicKey()
	owner, _ := NewOwner()
	_, kwrap, err := owner.PrepareImage(platformPub, make([]byte, hw.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ReceiveStart(kwrap, owner.PublicKey(), owner.Nonce()); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ReceiveStart(kwrap, owner.PublicKey(), []byte("replayed-nonce")); !errors.Is(err, ErrBadWrap) {
		t.Fatalf("a remembered agreement under another nonce: want ErrBadWrap, got %v", err)
	}
	if _, err := fw.ReceiveStart(kwrap, owner.PublicKey(), owner.Nonce()); err != nil {
		t.Fatalf("the genuine wrap after a refused one: %v", err)
	}

	n := len(fw.id.shared)
	// An X25519 key cannot agree with a P-256 one.
	wrong, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deriveKEK(fw.id, wrong.PublicKey(), nil); err == nil {
		t.Fatal("a P-256 identity agreed with an X25519 key")
	}
	if len(fw.id.shared) != n {
		t.Fatal("a failed agreement was remembered")
	}
}

// TestConcurrentAgreementsAgree: goroutines deriving KEKs from one
// identity at once, with peers seen and unseen, all get what a fresh
// agreement gives.
func TestConcurrentAgreementsAgree(t *testing.T) {
	id, err := newIdentity()
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*identity, 3)
	want := make([][32]byte, len(peers))
	nonce := []byte("session-nonce")
	for i := range peers {
		if peers[i], err = newIdentity(); err != nil {
			t.Fatal(err)
		}
		if want[i], err = deriveKEK(peers[i], id.public(), nonce); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 8; n++ {
				i := (g + n) % len(peers)
				got, err := deriveKEK(id, peers[i].public(), nonce)
				if err != nil || got != want[i] {
					t.Errorf("goroutine %d, peer %d: KEK differs (err %v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(id.shared) != len(peers) {
		t.Fatalf("memo holds %d agreements for %d peers", len(id.shared), len(peers))
	}
}
