// Package sev models the SEV firmware running in AMD's secure processor:
// the guest-context state machine (LAUNCH/ACTIVATE/SEND/RECEIVE/
// DEACTIVATE/DECOMMISSION), per-guest VM encryption keys, the ECDH key
// agreement and wrapped transport keys used by migration, and the
// measurement chain.
//
// Fidelius's central trick — reusing SEND/RECEIVE to boot from an encrypted
// kernel image and to encrypt disk I/O — is a protocol over this API, so
// the firmware is modelled at full API granularity with real cryptography:
// ECDH over P-256, AES-256-GCM key wrapping, AES-CTR transport encryption
// with AES-GMAC integrity, and an XEX transform for the I/O commands.
// The key agreement, wrapping and tags come from the standard library;
// the transport keystream and the I/O transform run on internal/hw's
// AES-NI kernels where the build and CPU have them, and on crypto/aes
// otherwise, to the same bytes.
package sev

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"fidelius/internal/hw"
	"fidelius/internal/lockrank"
)

// TransportKeys are the transport encryption key (TEK) and transport
// integrity key (TIK) protecting a SEND/RECEIVE session.
type TransportKeys struct {
	TEK [32]byte
	TIK [32]byte
}

// WrappedKeys is Kwrap: the TEK and TIK wrapped under the key-encryption
// key derived from the ECDH agreement between the two endpoints. It is
// public data — the paper sends it to Fidelius offline.
type WrappedKeys struct {
	Nonce      [12]byte
	Ciphertext []byte // AES-256-GCM(TEK || TIK)
}

// ErrBadWrap reports a wrapped-key blob that fails authentication.
var ErrBadWrap = errors.New("sev: wrapped keys fail authentication")

// identity is one end's long-lived P-256 key pair: a platform's or a
// guest owner's. The ECDH shared secret of two fixed key pairs never
// changes, so identity computes each peer's once, on first use, and
// keeps it; only the KEK, which mixes in the session nonce, is derived
// per wrap.
type identity struct {
	priv *ecdh.PrivateKey

	// mu (lock rank: leaf) guards shared, the agreements so far keyed by
	// the peer's public-key bytes. A failed agreement is never stored.
	mu     lockrank.Mutex
	shared map[string][]byte
}

func newIdentity() (*identity, error) {
	priv, err := GenerateIdentity()
	if err != nil {
		return nil, err
	}
	id := &identity{priv: priv, shared: make(map[string][]byte)}
	id.mu.Init(lockrank.RankLeaf, nil)
	return id, nil
}

func (id *identity) public() *ecdh.PublicKey { return id.priv.PublicKey() }

// agree returns the ECDH shared secret with peer, from the memo when
// this identity has agreed with peer before. Two first uses racing both
// compute it, to the same bytes.
func (id *identity) agree(peer *ecdh.PublicKey) ([]byte, error) {
	key := peer.Bytes()
	id.mu.Lock()
	shared, ok := id.shared[string(key)]
	id.mu.Unlock()
	if ok {
		return shared, nil
	}
	shared, err := id.priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("sev: key agreement: %w", err)
	}
	id.mu.Lock()
	id.shared[string(key)] = shared
	id.mu.Unlock()
	return shared, nil
}

// deriveKEK derives the key-encryption key both ends of a wrap compute:
// the ECDH agreement between id and peer, hashed with the session nonce
// (the paper's Nvm).
func deriveKEK(id *identity, peer *ecdh.PublicKey, nonce []byte) ([32]byte, error) {
	shared, err := id.agree(peer)
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	h.Write([]byte("sev-kek-v1"))
	h.Write(shared)
	h.Write(nonce)
	return [32]byte(h.Sum(nil)), nil
}

func newGCM(key [32]byte) (cipher.AEAD, error) {
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(blk)
}

// wrapKeys seals TEK||TIK under the KEK.
func wrapKeys(kek [32]byte, tk TransportKeys) (WrappedKeys, error) {
	aead, err := newGCM(kek)
	if err != nil {
		return WrappedKeys{}, err
	}
	var w WrappedKeys
	if _, err := io.ReadFull(rand.Reader, w.Nonce[:]); err != nil {
		return WrappedKeys{}, err
	}
	plain := append(append([]byte{}, tk.TEK[:]...), tk.TIK[:]...)
	w.Ciphertext = aead.Seal(nil, w.Nonce[:], plain, []byte("sev-kwrap"))
	return w, nil
}

// unwrapKeys opens Kwrap with the KEK.
func unwrapKeys(kek [32]byte, w WrappedKeys) (TransportKeys, error) {
	aead, err := newGCM(kek)
	if err != nil {
		return TransportKeys{}, err
	}
	plain, err := aead.Open(nil, w.Nonce[:], w.Ciphertext, []byte("sev-kwrap"))
	if err != nil {
		return TransportKeys{}, fmt.Errorf("%w: %v", ErrBadWrap, err)
	}
	if len(plain) != 64 {
		return TransportKeys{}, ErrBadWrap
	}
	var tk TransportKeys
	copy(tk.TEK[:], plain[:32])
	copy(tk.TIK[:], plain[32:])
	return tk, nil
}

// session is the transport crypto of one firmware context, built once
// where its keys are set (SEND_START, RECEIVE_START, SETENC_GEK) and
// used by every packet or I/O sector after: the TEK's AES-256 round keys,
// expanded once and handed to the CTR kernel by reference, the TIK's
// AES-256-GCM state that computes every packet's GMAC, plus a free list
// of per-packet tag scratch, and the XEX transform of the I/O commands.
// Only the I/O commands and GEK images use the transform, so it is
// derived from the kept TEK bytes on the first ioSeal or ioOpen, not at
// every start. The CTR, the GCM state and the transform are safe for
// concurrent use; a scratch is not, so each packet takes one from the
// free list (building it on a miss) and puts it back.
type session struct {
	tek hw.CTR
	tik cipher.AEAD // AES-256-GCM under the TIK; nil once scrubbed

	// key is the TEK the I/O transform derives from; ioOnce derives io
	// from it on first use and then zeroes it.
	key    [32]byte
	ioOnce sync.Once
	io     *hw.XEX

	mu   sync.Mutex // leaf; guards free
	free []*scratch
}

// scratch is what one packet's tag writes: the GCM nonce and the 16-byte
// GMAC. A stack buffer handed through the cipher.AEAD interface would
// move to the heap on every packet.
type scratch struct {
	nonce [12]byte
	tag   [16]byte
}

// newSession expands the TEK's round keys and the TIK's GCM state and
// keeps the TEK for the I/O transform.
func newSession(tk TransportKeys) *session {
	tik, err := newGCM(tk.TIK)
	if err != nil {
		panic(err) // a 32-byte key always makes an AES-256 block
	}
	return &session{tek: hw.NewCTR(tk.TEK), tik: tik, key: tk.TEK}
}

// ioXEX returns the I/O transform, deriving its XEX subkeys from the TEK
// on first use: nil once the session is scrubbed.
func (s *session) ioXEX() *hw.XEX {
	s.ioOnce.Do(func() {
		s.io = hw.NewXEX(s.key, "sev-io-data:", "sev-io-tweak:")
		s.key = [32]byte{}
	})
	return s.io
}

func (s *session) get() *scratch {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return new(scratch)
	}
	sc := s.free[n-1]
	s.free = s.free[:n-1]
	return sc
}

func (s *session) put(sc *scratch) {
	s.mu.Lock()
	s.free = append(s.free, sc)
	s.mu.Unlock()
}

// xorWith applies the AES-256-CTR transport keystream of the packet
// identified by seq to src, writing dst; dst may be src. Block i is
// XORed with AES(TEK, LE64(seq) || BE64(i)), the stream cipher.NewCTR
// gives for the IV LE64(seq) || 0^64, on the kernel where hw has one, so
// a packet allocates nothing there. Encrypt and decrypt are the same
// operation. A keystream is only safe once per seq, which holds for
// migration and image packets (one per page) but not for a disk sector
// that is rewritten: the I/O commands use ioSeal and ioOpen instead.
func (s *session) xorWith(seq uint64, dst, src []byte) {
	s.tek.XORKeyStream(seq, dst, src)
}

// ioSpan is the tweak span of one I/O chunk: the chunk identified by seq
// (a sector's LBA, or a page's index in a GEK image) is tweaked from
// position seq*ioSpan plus each block's byte offset, so no two chunks of
// at most ioSpan bytes share a tweak.
const ioSpan = hw.PageSize

// ioSeal XEX-encrypts the I/O chunk identified by seq in place. Unlike
// the CTR packets, rewriting a chunk with new data reveals no keystream.
func (s *session) ioSeal(seq uint64, b []byte) { s.ioXEX().EncryptLine(seq*ioSpan, b) }

// ioOpen inverts ioSeal.
func (s *session) ioOpen(seq uint64, b []byte) { s.ioXEX().DecryptLine(seq*ioSpan, b) }

// tagWith computes the tag of one transport chunk in a scratch of its
// own: the AES-GMAC of the ciphertext under the TIK, GCM's Seal of no
// plaintext with the ciphertext as additional data and the nonce
// LE64(seq) || 0^32, in the first 16 bytes; the last 16 stay zero, so a
// packet keeps its 32-byte tag field. GMAC is only safe once per nonce,
// which is the same one-seq-per-page-per-session rule the CTR keystream
// already depends on (see xorWith): a session tags each seq once, and a
// new session has a new TIK.
func (s *session) tagWith(seq uint64, ciphertext []byte) [32]byte {
	sc := s.get()
	defer s.put(sc)
	binary.LittleEndian.PutUint64(sc.nonce[:8], seq)
	var tag [32]byte
	copy(tag[:16], s.tik.Seal(sc.tag[:0], sc.nonce[:], nil, ciphertext))
	return tag
}

// scrub zeroes the kept TEK and the TEK's round keys and drops the I/O
// transform, the TIK's GCM state and the tag scratch, so the session can
// no longer seal, tag or open anything: the zeroed CTR holds no key and
// panics on use, and so does tagging without a GCM state. It spends
// ioOnce first, so a transform is never derived from the zeroed key.
func (s *session) scrub() {
	s.ioOnce.Do(func() {})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tek = hw.CTR{}
	s.io = nil
	s.key = [32]byte{}
	s.tik = nil
	s.free = nil
}

// Measurement is a running integrity measurement (the paper's Mvm).
type Measurement [32]byte

// measureChain folds a chunk tag into the running measurement:
// SHA-256(cur || tag).
func measureChain(cur Measurement, tag [32]byte) Measurement {
	var in [64]byte
	copy(in[:32], cur[:])
	copy(in[32:], tag[:])
	return sha256.Sum256(in[:])
}

// newWrappedKeys makes fresh transport keys and wraps them under the KEK
// of id's agreement with peer and nonce: the sending end of a
// SEND_START, run by the firmware and by the owner preparing an image.
func newWrappedKeys(id *identity, peer *ecdh.PublicKey, nonce []byte) (TransportKeys, WrappedKeys, error) {
	kek, err := deriveKEK(id, peer, nonce)
	if err != nil {
		return TransportKeys{}, WrappedKeys{}, err
	}
	var tk TransportKeys
	if tk.TEK, err = randomKey(); err != nil {
		return TransportKeys{}, WrappedKeys{}, err
	}
	if tk.TIK, err = randomKey(); err != nil {
		return TransportKeys{}, WrappedKeys{}, err
	}
	w, err := wrapKeys(kek, tk)
	return tk, w, err
}

// openWrappedKeys is the receiving end: it unwraps w under the KEK of
// id's agreement with peer and nonce.
func openWrappedKeys(id *identity, peer *ecdh.PublicKey, nonce []byte, w WrappedKeys) (TransportKeys, error) {
	kek, err := deriveKEK(id, peer, nonce)
	if err != nil {
		return TransportKeys{}, err
	}
	return unwrapKeys(kek, w)
}

// GenerateIdentity creates a fresh P-256 ECDH identity.
func GenerateIdentity() (*ecdh.PrivateKey, error) {
	return ecdh.P256().GenerateKey(rand.Reader)
}

func randomKey() ([32]byte, error) {
	var k [32]byte
	_, err := io.ReadFull(rand.Reader, k[:])
	return k, err
}
