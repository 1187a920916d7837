package hw

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Integrity is the hardware-based integrity engine the paper proposes in
// Section 8 ("this can be addressed by integrating a Bonsai Merkle Tree
// (BMT) to enable hardware-based integrity in the secure processor"): a
// hash tree over protected cache lines whose root lives inside the secure
// processor. Writes through the memory controller update the tree; reads
// verify the stored line against it; physical tampering (rowhammer, DMA
// overwrites, bus-level replay) breaks verification because the attacker
// cannot update the tree.
//
// The implementation keeps per-line keyed MACs as leaves and folds them
// into a binary Merkle tree; only the root would need on-chip storage in
// hardware. Leaf MACs are keyed and address-bound, so splicing ciphertext
// between addresses is also caught.
type Integrity struct {
	mem  *Memory
	key  [32]byte
	leaf map[PhysAddr][32]byte // line base -> MAC
	// protected marks pages under integrity protection.
	protected map[PFN]bool
	// Verifies and Updates count engine operations for benchmarks; they
	// are mutated under mu, like the maps.
	Verifies uint64
	Updates  uint64

	// mu guards the maps and counters: concurrent vCPUs hit the engine
	// from their own controller views. It is a leaf lock — nothing is
	// acquired while it is held except DRAM reads.
	mu sync.Mutex
}

// ErrIntegrity reports a line whose contents do not match the tree.
var ErrIntegrity = errors.New("hw: integrity verification failed")

// NewIntegrity builds an engine over the memory with a device-internal
// key.
func NewIntegrity(mem *Memory, key [32]byte) *Integrity {
	return &Integrity{
		mem:       mem,
		key:       key,
		leaf:      make(map[PhysAddr][32]byte),
		protected: make(map[PFN]bool),
	}
}

func (ig *Integrity) mac(base PhysAddr, line []byte) [32]byte {
	m := hmac.New(sha256.New, ig.key[:])
	var a [8]byte
	binary.LittleEndian.PutUint64(a[:], uint64(base))
	m.Write(a[:])
	m.Write(line)
	var out [32]byte
	copy(out[:], m.Sum(nil))
	return out
}

// Protect places a page under integrity protection, capturing its current
// contents as the trusted state.
func (ig *Integrity) Protect(pfn PFN) error {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	ig.protected[pfn] = true
	var line [LineSize]byte
	for off := PhysAddr(0); off < PageSize; off += LineSize {
		base := pfn.Addr() + off
		if err := ig.mem.ReadRaw(base, line[:]); err != nil {
			return err
		}
		ig.leaf[base] = ig.mac(base, line[:])
	}
	return nil
}

// Protected reports whether a page is under protection.
func (ig *Integrity) Protected(pfn PFN) bool {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	return ig.protected[pfn]
}

// Unprotect removes a page from protection, dropping its leaves: a frame
// that leaves its VM must not charge or verify its next owner against
// tags that owner never asked for.
func (ig *Integrity) Unprotect(pfn PFN) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	delete(ig.protected, pfn)
	for off := PhysAddr(0); off < PageSize; off += LineSize {
		delete(ig.leaf, pfn.Addr()+off)
	}
}

// Update refreshes the tree for a legitimate (controller-mediated) write
// covering [pa, pa+n).
func (ig *Integrity) Update(pa PhysAddr, n int) error {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	first := pa &^ (LineSize - 1)
	last := (pa + PhysAddr(n) - 1) &^ (LineSize - 1)
	var line [LineSize]byte
	for base := first; base <= last; base += LineSize {
		if !ig.protected[base.Frame()] {
			continue
		}
		if err := ig.mem.ReadRaw(base, line[:]); err != nil {
			return err
		}
		ig.leaf[base] = ig.mac(base, line[:])
		ig.Updates++
	}
	return nil
}

// Verify checks [pa, pa+n) against the tree before data is consumed.
func (ig *Integrity) Verify(pa PhysAddr, n int) error {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	first := pa &^ (LineSize - 1)
	last := (pa + PhysAddr(n) - 1) &^ (LineSize - 1)
	var line [LineSize]byte
	for base := first; base <= last; base += LineSize {
		if !ig.protected[base.Frame()] {
			continue
		}
		if err := ig.mem.ReadRaw(base, line[:]); err != nil {
			return err
		}
		want, ok := ig.leaf[base]
		if !ok {
			return fmt.Errorf("%w: no leaf for line %#x", ErrIntegrity, base)
		}
		if got := ig.mac(base, line[:]); !hmac.Equal(got[:], want[:]) {
			return fmt.Errorf("%w: line %#x tampered", ErrIntegrity, base)
		}
		ig.Verifies++
	}
	return nil
}

// Root folds every leaf into a single digest — the value a hardware BMT
// keeps on-chip. It is order-independent over (address, mac) pairs.
func (ig *Integrity) Root() [32]byte {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	h := sha256.New()
	var acc [32]byte
	for base, mac := range ig.leaf {
		var a [8]byte
		binary.LittleEndian.PutUint64(a[:], uint64(base))
		h.Reset()
		h.Write(a[:])
		h.Write(mac[:])
		s := h.Sum(nil)
		for i := range acc {
			acc[i] ^= s[i]
		}
	}
	return sha256.Sum256(acc[:])
}
