package hw

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// ASID is an address space identifier tagging encrypted accesses. ASID 0 is
// reserved for the host (SME) key.
type ASID uint16

// HostASID is the key slot used for host (SME) encryption, i.e. pages the
// hypervisor itself marks with the C-bit.
const HostASID ASID = 0

// NumSlots is the number of key slots in the engine — the full ASID space,
// so slot lookup is a single bounds-check-free array index.
const NumSlots = 1 << 16

// KeySize is the size in bytes of a VM encryption key (Kvek).
const KeySize = 32

// Key is a raw VM encryption key. The engine derives independent data and
// tweak AES-128 subkeys from it, giving an XEX construction tweaked by the
// physical block address — matching AMD's documented physical-address
// tweak, which is what makes the replay/remap analysis in the paper
// meaningful (the same plaintext encrypts differently at different
// addresses).
type Key [KeySize]byte

// ErrNoKey reports an encrypted access whose ASID has no installed key.
var ErrNoKey = errors.New("hw: no key installed for ASID")

// XEX is the tweaked-block construction behind both memory and disk
// encryption: each 16-byte block at position pos is encrypted as
// E_data(P ^ T) ^ T with T = E_tweak(pos), pos being the block's physical
// address for memory and its byte offset for a disk image. It is safe
// for concurrent use: the cipher.Block values are stateless after
// construction.
type XEX struct {
	data  cipher.Block
	tweak cipher.Block
}

// NewXEX builds the construction from its data and tweak AES subkeys.
func NewXEX(dataKey, tweakKey []byte) (*XEX, error) {
	data, err := aes.NewCipher(dataKey)
	if err != nil {
		return nil, err
	}
	tweak, err := aes.NewCipher(tweakKey)
	if err != nil {
		return nil, err
	}
	return &XEX{data: data, tweak: tweak}, nil
}

// EncryptLine encrypts the whole blocks of b in place, b[0] sitting at
// position pos (16-byte aligned); trailing sub-block bytes are left
// untouched.
func (x *XEX) EncryptLine(pos uint64, b []byte) { x.line(pos, b, true) }

// DecryptLine inverts EncryptLine.
func (x *XEX) DecryptLine(pos uint64, b []byte) { x.line(pos, b, false) }

// line runs the XEX loop in either direction. The tweak is computed
// inside the block's own 16 bytes — data saved, tweak input written,
// encrypted in place, data restored XORed with the tweak — so no scratch
// buffer is handed to the cipher.Block interface, which would move it to
// the heap on every call. The XORs are two 64-bit words.
func (x *XEX) line(pos uint64, b []byte, encrypt bool) {
	le := binary.LittleEndian
	for off := 0; off+BlockSize <= len(b); off += BlockSize {
		blk := b[off : off+BlockSize : off+BlockSize]
		lo, hi := le.Uint64(blk[:8]), le.Uint64(blk[8:])
		le.PutUint64(blk[:8], pos+uint64(off))
		le.PutUint64(blk[8:], 0)
		x.tweak.Encrypt(blk, blk)
		tlo, thi := le.Uint64(blk[:8]), le.Uint64(blk[8:])
		le.PutUint64(blk[:8], lo^tlo)
		le.PutUint64(blk[8:], hi^thi)
		if encrypt {
			x.data.Encrypt(blk, blk)
		} else {
			x.data.Decrypt(blk, blk)
		}
		le.PutUint64(blk[:8], le.Uint64(blk[:8])^tlo)
		le.PutUint64(blk[8:], le.Uint64(blk[8:])^thi)
	}
}

// PageCipher is the memory XEX transform for one key, tweaked by physical
// address. The SEV firmware holds one per guest context (it must encrypt
// pages before the key is ever installed in the controller), and the
// Engine holds one per active ASID.
//
// All methods are safe for concurrent use, so the bulk-crypto worker
// pool can drive one PageCipher from several goroutines at once.
type PageCipher struct {
	x XEX
}

// NewPageCipher derives the data and tweak AES subkeys from a raw key.
func NewPageCipher(key Key) (*PageCipher, error) {
	dk := sha256.Sum256(append([]byte("fidelius-data-key:"), key[:]...))
	tk := sha256.Sum256(append([]byte("fidelius-tweak-key:"), key[:]...))
	x, err := NewXEX(dk[:16], tk[:16])
	if err != nil {
		return nil, err
	}
	return &PageCipher{x: *x}, nil
}

// tweakFor computes the XEX tweak block for the 16-byte-aligned physical
// address.
func (s *PageCipher) tweakFor(pa PhysAddr) [BlockSize]byte {
	var in, out [BlockSize]byte
	binary.LittleEndian.PutUint64(in[:8], uint64(pa))
	s.x.tweak.Encrypt(out[:], in[:])
	return out
}

// EncryptBlock encrypts one 16-byte block in place, tweaked by its
// physical address: the byte-loop reference the line API is checked
// against.
func (s *PageCipher) EncryptBlock(pa PhysAddr, b []byte) {
	t := s.tweakFor(pa)
	for i := range b {
		b[i] ^= t[i]
	}
	s.x.data.Encrypt(b, b)
	for i := range b {
		b[i] ^= t[i]
	}
}

// DecryptBlock decrypts one 16-byte block in place, tweaked by its
// physical address: the byte-loop reference the line API is checked
// against.
func (s *PageCipher) DecryptBlock(pa PhysAddr, b []byte) {
	t := s.tweakFor(pa)
	for i := range b {
		b[i] ^= t[i]
	}
	s.x.data.Decrypt(b, b)
	for i := range b {
		b[i] ^= t[i]
	}
}

// EncryptLine encrypts a block-aligned span in place, tweaked block by
// block exactly as repeated EncryptBlock calls would — same ciphertext
// bytes — with no allocation and no per-block call or error overhead.
// pa must be 16-byte aligned; any trailing sub-block bytes are left
// untouched.
func (s *PageCipher) EncryptLine(pa PhysAddr, b []byte) { s.x.line(uint64(pa), b, true) }

// DecryptLine decrypts a block-aligned span in place; the inverse of
// EncryptLine with identical per-block tweak semantics.
func (s *PageCipher) DecryptLine(pa PhysAddr, b []byte) { s.x.line(uint64(pa), b, false) }

// EncryptPage encrypts one full page in place. b must be PageSize bytes
// and pa page aligned.
func (s *PageCipher) EncryptPage(pa PhysAddr, b []byte) { s.EncryptLine(pa, b) }

// DecryptPage decrypts one full page in place.
func (s *PageCipher) DecryptPage(pa PhysAddr, b []byte) { s.DecryptLine(pa, b) }

// Engine is the inline AES memory-encryption engine living in the memory
// controller. Keys are installed per ASID by the SEV firmware (ACTIVATE)
// and never leave the engine.
//
// The slot table is a two-level array of atomically published cipher
// pointers indexed directly by ASID — the software analogue of the
// hardware key RAM. The memory hot path (one lookup per transaction,
// previously one RWMutex acquisition plus a map probe per 16-byte block)
// resolves a slot with two atomic loads. A chunk of slots is installed by
// the first Install that reaches it, so an engine holds only the key RAM
// its ASIDs touch: a flat 64 Ki-slot table cost every boot 512 KiB of
// zeroing and every garbage collection a 512 KiB pointer scan.
type Engine struct {
	chunks [NumSlots / slotChunk]atomic.Pointer[slotTable]
	keys   atomic.Int64
}

// slotChunk is the number of key slots per lazily installed chunk.
const slotChunk = 256

type slotTable [slotChunk]atomic.Pointer[PageCipher]

// lookup returns the cipher installed for the ASID, or nil.
func (e *Engine) lookup(asid ASID) *PageCipher {
	t := e.chunks[asid/slotChunk].Load()
	if t == nil {
		return nil
	}
	return t[asid%slotChunk].Load()
}

// entry returns the ASID's slot, installing its chunk with a CAS if no
// key in that chunk has been installed yet.
func (e *Engine) entry(asid ASID) *atomic.Pointer[PageCipher] {
	c := &e.chunks[asid/slotChunk]
	t := c.Load()
	if t == nil {
		if n := new(slotTable); c.CompareAndSwap(nil, n) {
			t = n
		} else {
			t = c.Load()
		}
	}
	return &t[asid%slotChunk]
}

// NewEngine returns an engine with no keys installed.
func NewEngine() *Engine {
	return &Engine{}
}

// Install loads a key into the slot for the given ASID, overwriting any
// previous key. Hardware-wise this is the effect of the SEV ACTIVATE
// command (or BIOS SME enablement for ASID 0).
func (e *Engine) Install(asid ASID, key Key) error {
	slot, err := NewPageCipher(key)
	if err != nil {
		return err
	}
	if e.entry(asid).Swap(slot) == nil {
		e.keys.Add(1)
	}
	return nil
}

// Uninstall removes the key for the ASID (SEV DEACTIVATE).
func (e *Engine) Uninstall(asid ASID) {
	t := e.chunks[asid/slotChunk].Load()
	if t != nil && t[asid%slotChunk].Swap(nil) != nil {
		e.keys.Add(-1)
	}
}

// Keys reports how many key slots are populated.
func (e *Engine) Keys() int {
	return int(e.keys.Load())
}

// Installed reports whether a key is present for the ASID.
func (e *Engine) Installed(asid ASID) bool {
	return e.lookup(asid) != nil
}

// Slot resolves the cipher for an ASID. Hot paths call this once per
// transaction and then drive the returned PageCipher directly, instead of
// re-resolving (and re-checking the error) per block.
func (e *Engine) Slot(asid ASID) (*PageCipher, error) {
	s := e.lookup(asid)
	if s == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoKey, asid)
	}
	return s, nil
}

// EncryptBlock encrypts one 16-byte block in place, tweaked by its
// physical address. pa must be block aligned and len(b) == BlockSize.
func (e *Engine) EncryptBlock(asid ASID, pa PhysAddr, b []byte) error {
	s, err := e.Slot(asid)
	if err != nil {
		return err
	}
	s.EncryptBlock(pa, b)
	return nil
}

// DecryptBlock decrypts one 16-byte block in place, tweaked by its
// physical address.
func (e *Engine) DecryptBlock(asid ASID, pa PhysAddr, b []byte) error {
	s, err := e.Slot(asid)
	if err != nil {
		return err
	}
	s.DecryptBlock(pa, b)
	return nil
}

// EncryptLine encrypts a block-aligned span in place with the ASID's key,
// resolving the slot once.
func (e *Engine) EncryptLine(asid ASID, pa PhysAddr, b []byte) error {
	s, err := e.Slot(asid)
	if err != nil {
		return err
	}
	s.EncryptLine(pa, b)
	return nil
}

// DecryptLine decrypts a block-aligned span in place with the ASID's key.
func (e *Engine) DecryptLine(asid ASID, pa PhysAddr, b []byte) error {
	s, err := e.Slot(asid)
	if err != nil {
		return err
	}
	s.DecryptLine(pa, b)
	return nil
}

// EncryptPage encrypts one page in place with the ASID's key.
func (e *Engine) EncryptPage(asid ASID, pa PhysAddr, b []byte) error {
	return e.EncryptLine(asid, pa, b)
}

// DecryptPage decrypts one page in place with the ASID's key.
func (e *Engine) DecryptPage(asid ASID, pa PhysAddr, b []byte) error {
	return e.DecryptLine(asid, pa, b)
}
