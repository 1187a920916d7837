package hw

import (
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
	s := new(PageCipher)
	s.x.derive(key, "fidelius-data-key:", "fidelius-tweak-key:", haveKernel)
	return s, nil
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
	e.entry(asid).Store(slot)
	return nil
}

// Uninstall removes the key for the ASID (SEV DEACTIVATE).
func (e *Engine) Uninstall(asid ASID) {
	t := e.chunks[asid/slotChunk].Load()
	if t != nil {
		t[asid%slotChunk].Store(nil)
	}
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
