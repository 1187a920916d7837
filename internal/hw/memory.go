// Package hw models the physical hardware substrate the rest of the
// simulator runs on: DRAM, the inline AES memory-encryption engine with
// per-ASID key slots (AMD SME/SEV), a small physically-tagged cache, and the
// memory controller that mediates every access.
//
// The central property reproduced from the hardware is: DRAM always holds
// ciphertext for pages accessed with the C-bit set, plaintext only ever
// exists inside the package boundary (caches and register file), and an
// access with the wrong key — or no key at all, as in a cold-boot dump, bus
// snoop or DMA — observes ciphertext.
package hw

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// PageSize is the size of a physical page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// BlockSize is the encryption granularity of the AES engine in bytes.
const BlockSize = 16

// PhysAddr is a host physical address.
type PhysAddr uint64

// PFN is a physical frame number (PhysAddr >> PageShift).
type PFN uint64

// Addr returns the base physical address of the frame.
func (p PFN) Addr() PhysAddr { return PhysAddr(p) << PageShift }

// Frame returns the frame number containing the address.
func (a PhysAddr) Frame() PFN { return PFN(a >> PageShift) }

// Offset returns the offset of the address within its page.
func (a PhysAddr) Offset() uint64 { return uint64(a) & (PageSize - 1) }

// ErrOutOfRange reports an access beyond the installed physical memory.
var ErrOutOfRange = errors.New("hw: physical address out of range")

// Memory is the installed physical memory. All contents are stored exactly
// as a bus analyser would see them: ciphertext for encrypted pages.
//
// Frames are backed on first write: each frame's backing array is
// installed by the first WriteRaw or FlipBit that reaches it, and a frame
// nobody has written reads as zeros, exactly as freshly zeroed DRAM would.
// A raw reader therefore sees the same bytes as over a flat zeroed array,
// while a machine only pays host memory for the frames it touches.
type Memory struct {
	frames []atomic.Pointer[[PageSize]byte]
	size   uint64

	// fault, when non-nil, is a one-shot injected DRAM fault armed by
	// InjectFault (test instrumentation for channel-error paths).
	fault *memFault
}

// memFault describes one injected DRAM fault window.
type memFault struct {
	pa  PhysAddr
	n   int
	err error
}

// NewMemory returns a memory of the given number of 4 KiB pages.
func NewMemory(pages int) *Memory {
	return NewMemoryBytes(pages * PageSize)
}

// NewMemoryBytes returns a memory of an arbitrary byte size, not
// necessarily page- or block-aligned — the shape a trimmed top-of-memory
// region (e.g. one stolen by firmware) presents to the controller, which
// must clamp partial-block traffic at the very end of DRAM.
func NewMemoryBytes(n int) *Memory {
	if n < 0 {
		panic(fmt.Sprintf("hw: negative memory size %d", n))
	}
	return &Memory{
		frames: make([]atomic.Pointer[[PageSize]byte], (n+PageSize-1)/PageSize),
		size:   uint64(n),
	}
}

// Size reports the installed memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// check bounds [pa, pa+n) by the installed size without forming pa+n,
// which would wrap for an address near 2^64.
func (m *Memory) check(pa PhysAddr, n int) error {
	if uint64(pa) > m.size || uint64(n) > m.size-uint64(pa) {
		return fmt.Errorf("%w: %#x+%d > %#x", ErrOutOfRange, pa, n, m.size)
	}
	return nil
}

// backing returns the frame's backing array, installing a zeroed one if
// the frame has never been written. The install is a CAS, so concurrent
// first writes to one frame agree on a single array and no store is lost.
func (m *Memory) backing(f PFN) *[PageSize]byte {
	slot := &m.frames[f]
	if p := slot.Load(); p != nil {
		return p
	}
	if p := new([PageSize]byte); slot.CompareAndSwap(nil, p) {
		return p
	}
	return slot.Load()
}

// takeFault consumes the armed fault if the access overlaps its window.
func (m *Memory) takeFault(pa PhysAddr, n int) error {
	f := m.fault
	if f == nil || n <= 0 {
		return nil
	}
	if pa < f.pa+PhysAddr(f.n) && f.pa < pa+PhysAddr(n) {
		m.fault = nil
		return f.err
	}
	return nil
}

// ReadRaw copies bytes exactly as stored in DRAM. This is the view of a
// cold-boot attacker, a bus snooper, or a DMA engine.
func (m *Memory) ReadRaw(pa PhysAddr, buf []byte) error {
	if err := m.check(pa, len(buf)); err != nil {
		return err
	}
	if err := m.takeFault(pa, len(buf)); err != nil {
		return err
	}
	if len(buf) == 0 {
		// pa may equal Size, one frame past the last.
		return nil
	}
	if off := pa.Offset(); off+uint64(len(buf)) <= PageSize {
		// Single-frame fast path: every cache-line fill lands here.
		if p := m.frames[pa.Frame()].Load(); p != nil {
			copy(buf, p[off:])
		} else {
			clear(buf)
		}
		return nil
	}
	for len(buf) > 0 {
		off := pa.Offset()
		n := min(len(buf), int(PageSize-off))
		if p := m.frames[pa.Frame()].Load(); p != nil {
			copy(buf[:n], p[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		pa += PhysAddr(n)
	}
	return nil
}

// WriteRaw stores bytes directly into DRAM, bypassing the encryption
// engine. This is the view of a DMA write or a physical tamper.
func (m *Memory) WriteRaw(pa PhysAddr, data []byte) error {
	if err := m.check(pa, len(data)); err != nil {
		return err
	}
	if err := m.takeFault(pa, len(data)); err != nil {
		return err
	}
	for len(data) > 0 {
		n := copy(m.backing(pa.Frame())[pa.Offset():], data)
		data = data[n:]
		pa += PhysAddr(n)
	}
	return nil
}

// FlipBit flips a single bit in DRAM, modelling a rowhammer disturbance.
func (m *Memory) FlipBit(pa PhysAddr, bit uint) error {
	if err := m.check(pa, 1); err != nil {
		return err
	}
	m.backing(pa.Frame())[pa.Offset()] ^= 1 << (bit & 7)
	return nil
}
