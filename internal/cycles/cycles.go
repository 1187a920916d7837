// Package cycles provides the deterministic cycle cost model used by the
// platform simulator.
//
// The paper's prototype measures wall-clock overhead on an 8-core AMD Ryzen
// at 3.4 GHz. We have no such hardware, so every simulated operation is
// charged a deterministic cycle cost instead. The constants below are either
// taken directly from the paper's micro-benchmarks (Section 7.2) or set to
// widely published figures for the corresponding micro-architectural events.
// Macro results (Figures 5 and 6, Table 3) are then *derived* from the same
// model that the micro-benchmarks validate, which keeps the two consistent
// in exactly the way the paper argues they are.
package cycles

import (
	"sync"
	"sync/atomic"
)

// Cost constants, in CPU cycles.
//
// Paper-anchored values (Section 7.2):
//   - type 1 gate (clear/restore CR0.WP) totals 306 cycles,
//   - type 2 gate (checking loop) totals 16 cycles,
//   - type 3 gate (add/remove a mapping) totals 339 cycles, of which the
//     targeted TLB flush is 128 cycles and the page-table write <2 cycles,
//   - shadow-and-check of VMCB+registers totals 661 cycles per round trip.
const (
	// MemAccess is the cost of a memory access that misses the cache and
	// reaches DRAM through the memory controller, with encryption disabled.
	MemAccess = 80

	// MemEncryptExtra is the additional latency of the inline AES engine
	// when the accessed page has the C-bit set. AMD documents the SME
	// engine as adding a small, fixed DRAM latency.
	MemEncryptExtra = 14

	// CacheAccess is the cost of a cache hit; encryption is invisible to
	// cache hits because caches hold plaintext.
	CacheAccess = 4

	// ALUOp is the cost of one simulated ALU instruction.
	ALUOp = 1

	// TLBFlushEntry is the cost of flushing a single TLB entry (INVLPG),
	// as measured for the type 3 gate in the paper.
	TLBFlushEntry = 128

	// TLBFlushFull is the cost of a full TLB flush as incurred by a CR3
	// switch without PCID on AMD; the paper cites this as the reason a
	// separate-address-space design is too expensive.
	TLBFlushFull = 2000

	// PTWrite is the cost of writing one page-table entry ("writing data
	// into cache uses less than 2 cycles").
	PTWrite = 2

	// WPToggle is the cost of one CR0.WP write. The type 1 gate performs
	// two of them plus interrupt gating, a stack switch and sanity checks,
	// totalling Gate1 cycles.
	WPToggle = 110

	// IRQToggle is the cost of disabling or re-enabling interrupts.
	IRQToggle = 10

	// StackSwitch is the cost of switching to the Fidelius stack.
	StackSwitch = 24

	// SanityCheck is the cost of the gate sanity-check logic.
	SanityCheck = 16

	// Gate1 is the end-to-end cost of the type 1 gate: two WP toggles,
	// two IRQ toggles, a stack switch and the sanity check.
	// 2*110 + 2*10 + 24 + 16 + 26(policy dispatch) = 306.
	Gate1 = 2*WPToggle + 2*IRQToggle + StackSwitch + SanityCheck + 26

	// Gate2 is the end-to-end cost of the type 2 gate: only the checking
	// loop around a monopolised instruction.
	Gate2 = SanityCheck

	// Gate3 is the end-to-end cost of the type 3 gate: map, check,
	// execute, unmap, flush the affected TLB entries.
	// 2*PTWrite + SanityCheck + IRQToggle*2 + StackSwitch + 128 + 147 = 339.
	Gate3 = 2*PTWrite + SanityCheck + 2*IRQToggle + StackSwitch + TLBFlushEntry + 147

	// VMExit and VMEntry are the world-switch costs of AMD-V.
	VMExit  = 1200
	VMEntry = 1100

	// ShadowCheck is the cost Fidelius adds to every VMEXIT/VMRUN round
	// trip: copying VMCB and registers to the private shadow, masking by
	// exit reason, and verifying integrity before re-entry.
	ShadowCheck = 661

	// Hypercall is the guest-side cost of a void hypercall round trip
	// (VMEXIT + dispatch + VMENTRY), before Fidelius interposition.
	Hypercall = VMExit + VMEntry + 200

	// AESBlockHW is the per-16-byte-block *latency* of AES-NI as seen by
	// the block driver (single-block dependency chain, ~1.5 cycles/byte
	// plus key-schedule and XEX tweak work).
	AESBlockHW = 24

	// AESBlockSW is the per-block cost of constant-time software AES; the
	// paper reports software encryption at more than 20x the hardware
	// paths.
	AESBlockSW = 900

	// AESBlockSEV is the effective per-block cost of pushing data through
	// the SEV firmware SEND/RECEIVE path; the paper measures the SME
	// engine path as slightly cheaper than AES-NI in throughput terms
	// (8.69% vs 11.49% slowdown on a 512 MB copy).
	AESBlockSEV = 1

	// SEVCommand is the fixed cost of issuing one SEV firmware command
	// (mailbox write, PSP dispatch, completion poll).
	SEVCommand = 5000

	// PageCopy is the cost of copying one 4 KiB page, excluding
	// encryption.
	PageCopy = 1024

	// NPTViolation is the hardware cost of a nested page fault before any
	// software handling.
	NPTViolation = 1500

	// DiskSectorAccess is the cost charged by the backend for moving one
	// 512-byte sector between the disk image and the shared ring.
	DiskSectorAccess = 3500

	// DiskSeekRead and DiskSeekWrite are charged per non-sequential
	// request (random read head movement; random writes absorb most of
	// it in the write cache). They set the fio rand/seq base ratio.
	DiskSeekRead  = 800_000
	DiskSeekWrite = 400_000

	// Bulk-copy model for the Section 7.2 I/O-encryption micro-benchmark
	// (512 MB copy): per-16-byte-block costs with the engines running at
	// streaming *throughput* rather than latency.
	CopyBlock   = 200  // plain copy
	EncAESNI    = 23   // AES-NI pipelined: ~11.5% over CopyBlock
	EncSEVTput  = 17   // SME/SEV engine: ~8.5% over CopyBlock
	EncSoftware = 4600 // software AES: >20x

	// EventChannelSignal is the cost of kicking an event channel.
	EventChannelSignal = 600

	// DFFlush is the cost of the DF_FLUSH firmware command: a data-fabric
	// write-back/invalidate that scrubs every stale cache line tagged with
	// a deactivated ASID, the step real SEV requires before an ASID may be
	// activated again (CROSSLINE shows skipping it breaks isolation).
	DFFlush = 20000

	// IntegrityCheck is the per-line cost of the optional Bonsai-Merkle
	// integrity engine (the Section 8 hardware suggestion).
	IntegrityCheck = 40
)

// Counter accumulates simulated cycles. The zero value is ready to use.
// The counter is a single atomic word, so each simulated CPU can charge
// its own counter from its own goroutine; cross-counter aggregation is
// the Clock's job.
type Counter struct {
	total atomic.Uint64
}

// Charge adds n cycles to the counter.
func (c *Counter) Charge(n uint64) { c.total.Add(n) }

// Total reports the cycles accumulated so far.
func (c *Counter) Total() uint64 { return c.total.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.total.Store(0) }

// Sub returns the cycles elapsed since an earlier reading.
func (c *Counter) Sub(earlier uint64) uint64 { return c.total.Load() - earlier }

// Clock is the machine's global cycle clock: a base counter (the boot
// CPU's, charged by all single-owner hypervisor work) plus any number of
// attached per-vCPU counters, each charged only by its owning goroutine.
// Total sums them all, so telemetry timestamps and the guest-visible TSC
// advance with work done on every core, while the hot path still charges
// a private uncontended counter.
type Clock struct {
	base *Counter

	mu    sync.RWMutex
	parts []*Counter
}

// NewClock returns a clock over the given base counter.
func NewClock(base *Counter) *Clock {
	return &Clock{base: base}
}

// Attach creates a fresh per-vCPU counter and includes it in Total until
// it is folded back with Fold.
func (k *Clock) Attach() *Counter {
	c := &Counter{}
	k.mu.Lock()
	k.parts = append(k.parts, c)
	k.mu.Unlock()
	return c
}

// Fold detaches a counter obtained from Attach and merges its cycles into
// the base counter, keeping Total unchanged. The counter must not be
// charged after folding. The base charge happens under the write lock so
// that a concurrent Total never observes the in-between state (part gone,
// base not yet credited) — the clock is monotonic across folds.
func (k *Clock) Fold(c *Counter) {
	if c == nil {
		return
	}
	k.mu.Lock()
	for i, p := range k.parts {
		if p == c {
			k.parts = append(k.parts[:i], k.parts[i+1:]...)
			break
		}
	}
	k.base.Charge(c.Total())
	k.mu.Unlock()
}

// Total reports the global clock: base plus every attached counter. The
// base is read under the same lock that Fold holds, so a fold is atomic
// from this reader's point of view.
func (k *Clock) Total() uint64 {
	k.mu.RLock()
	t := k.base.Total()
	for _, p := range k.parts {
		t += p.Total()
	}
	k.mu.RUnlock()
	return t
}
