package hw

import (
	"sync/atomic"

	"fidelius/internal/cycles"
	"fidelius/internal/telemetry"
)

// Access describes one memory transaction as seen by the memory controller:
// the physical address, whether the translation carried the C-bit, and the
// ASID tag of the issuing context.
type Access struct {
	PA        PhysAddr
	Encrypted bool
	ASID      ASID
}

// ctlStats is the controller's rare-event accounting, shared between the
// root controller and every per-vCPU view: lines through the AES engine
// and DMA transfers. Atomics, because concurrent domain runners bump them
// from their own goroutines. The per-access transaction counts
// (mem.reads, mem.read_bytes, mem.writes, mem.write_bytes) are not here:
// the cache keeps them in its per-set records, under the set lock each
// access already takes. All of them are served through Telem.Reg as
// reader funcs — one registration per machine, none per view.
type ctlStats struct {
	decLines, encLines  atomic.Uint64
	dmaReads, dmaWrites atomic.Uint64
}

// Controller is the memory controller: every CPU-originated access goes
// through it, consulting the cache and the AES engine. DMA bypasses it via
// the DMA type.
//
// A Controller value is a *port* on the memory system: Mem, Eng, Cache,
// Integ, Telem and the transaction stats are shared machine state (each
// thread-safe on its own), while Cycles and the rmw staging buffer are
// private to the port's owning goroutine. View clones a port for another
// vCPU; the serial platform just uses the root controller everywhere.
//
// Accounting rides on locks the access takes anyway. A read or write
// counts its transaction in the cache set of its first line, under that
// set's lock, and charges its port's cycle counter once for all its
// lines. A one-line cache-hit read therefore costs three locked
// instructions (the set lock, its unlock and the one cycle charge) where
// per-line charging and shared atomic counters took six.
type Controller struct {
	Mem    *Memory
	Eng    *Engine
	Cache  *Cache
	Cycles *cycles.Counter

	// Clock is the machine's global cycle clock: the root controller's
	// Cycles plus the private counter of every live view. Telemetry
	// timestamps and the guest-visible TSC read it via Now.
	Clock *cycles.Clock

	// Telem is this machine's telemetry hub: the controller owns it
	// because every layer above (MMU, CPU, SEV firmware, hypervisor)
	// already holds a controller reference, and the hub's clock is the
	// controller's cycle clock. Hub methods are nil-safe, so a
	// hand-built Controller{} without a hub still works.
	Telem *telemetry.Hub

	// Integ, when non-nil, is the optional Bonsai-Merkle integrity
	// engine of Section 8: protected lines are verified on every read
	// from DRAM and re-hashed on every mediated write. Physical writes
	// that bypass the controller (DMA, rowhammer) break verification.
	Integ *Integrity

	stats *ctlStats

	// rmw is the write path's read-modify-write staging buffer, reused
	// across transactions. It is the one piece of genuinely per-owner
	// scratch state, which is why views get their own.
	rmw []byte
}

// NewController wires a controller over memory with a cache of cacheLines
// lines.
func NewController(mem *Memory, cacheLines int) *Controller {
	c := &Controller{
		Mem:    mem,
		Eng:    NewEngine(),
		Cache:  NewCache(cacheLines),
		Cycles: &cycles.Counter{},
		stats:  &ctlStats{},
	}
	c.Clock = cycles.NewClock(c.Cycles)
	c.Telem = telemetry.New(c.Clock.Total)
	reg := c.Telem.Reg
	s := c.stats
	reg.RegisterFunc("cycles.total", c.Clock.Total)
	cache := c.Cache
	reg.RegisterFunc("mem.reads", func() uint64 { return cache.sum(func(s *cacheSet) uint64 { return s.reads }) })
	reg.RegisterFunc("mem.writes", func() uint64 { return cache.sum(func(s *cacheSet) uint64 { return s.writes }) })
	reg.RegisterFunc("mem.read_bytes", func() uint64 { return cache.sum(func(s *cacheSet) uint64 { return s.readBytes }) })
	reg.RegisterFunc("mem.write_bytes", func() uint64 { return cache.sum(func(s *cacheSet) uint64 { return s.writeBytes }) })
	reg.RegisterFunc("mem.dec_lines", s.decLines.Load)
	reg.RegisterFunc("mem.enc_lines", s.encLines.Load)
	reg.RegisterFunc("dma.reads", s.dmaReads.Load)
	reg.RegisterFunc("dma.writes", s.dmaWrites.Load)
	reg.RegisterFunc("cache.hits", func() uint64 { return cache.sum(func(s *cacheSet) uint64 { return s.hits }) })
	reg.RegisterFunc("cache.misses", func() uint64 { return cache.sum(func(s *cacheSet) uint64 { return s.misses }) })
	return c
}

// View returns a per-vCPU port on the same memory system: shared DRAM,
// engine, cache, integrity tree, telemetry and transaction stats, but a
// private cycle counter (attached to the machine clock) and a private rmw
// staging buffer. Release the view when its owner goes offline.
func (c *Controller) View() *Controller {
	v := c.Detached()
	if c.Clock != nil {
		v.Cycles = c.Clock.Attach()
	}
	return v
}

// Detached returns a port like View with no cycle counter at all:
// nothing it charges is counted anywhere. Trusted mechanics whose cost a
// modelled constant already covers run on such a port. Its transactions
// still count in the shared stats, and its cache traffic (fills, CLOCK
// reference bits) is part of the model.
func (c *Controller) Detached() *Controller {
	v := *c
	v.Cycles = nil
	v.rmw = nil
	return &v
}

// Release folds a view's private cycle counter back into the machine
// clock. The view must not be used afterwards.
func (c *Controller) Release() {
	if c.Clock != nil {
		c.Clock.Fold(c.Cycles)
	}
}

// Now reads the machine's global clock — the cycles of every port, not
// just this one. This is what a guest TSC read observes.
func (c *Controller) Now() uint64 {
	if c.Clock != nil {
		return c.Clock.Total()
	}
	if c.Cycles != nil {
		return c.Cycles.Total()
	}
	return 0
}

// charge adds n cycles to the port's counter; a detached port has none.
func (c *Controller) charge(n uint64) {
	if c.Cycles != nil {
		c.Cycles.Charge(n)
	}
}

// touchedLines counts the cache lines overlapped by [pa, pa+n); n must be
// positive (an empty transfer touches no lines and must not reach here, or
// the end-address arithmetic underflows).
func touchedLines(pa PhysAddr, n int) uint64 {
	return uint64((pa+PhysAddr(n)-1)/LineSize - pa/LineSize + 1)
}

// Read performs a CPU read. Plaintext is returned for encrypted pages only
// when the issuing ASID's key is installed; a missing key is a fault.
//
// Cache hits return the cached plaintext regardless of the accessing ASID —
// this deliberately reproduces the pre-SNP micro-architecture the paper's
// inter-VM remapping attack exploits (Section 6.2, "a cache-hit may happen
// in a high probability to leak privacy"). The key slot is therefore
// resolved lazily, on the first line actually fetched from DRAM: a fully
// cache-resident read never consults the engine, exactly as the hardware
// never would.
//
// The lines' cycles are summed and charged once, before anything else
// can read the clock: the decrypt event, an integrity audit record, or a
// caller handed an error.
func (c *Controller) Read(a Access, buf []byte) error {
	if err := c.Mem.Check(a.PA, len(buf)); err != nil {
		return err
	}
	if len(buf) == 0 {
		return nil
	}
	var slot *PageCipher // resolved once, on the first decrypting miss
	decrypted := uint64(0)
	cost := uint64(0)
	tx := len(buf) // counted by the first line's set
	done := 0
	for done < len(buf) {
		pa := a.PA + PhysAddr(done)
		base := lineBase(pa)
		off := int(pa - base)
		n := LineSize - off
		if n > len(buf)-done {
			n = len(buf) - done
		}
		hit := c.Cache.ReadAt(pa, buf[done:done+n], tx)
		tx = 0
		if hit {
			cost += cycles.CacheAccess
			done += n
			continue
		}
		cost += cycles.MemAccess
		if a.Encrypted {
			cost += cycles.MemEncryptExtra
		}
		if c.Integ != nil && c.Integ.Protected(base.Frame()) {
			cost += cycles.IntegrityCheck
			if err := c.Integ.Verify(base, LineSize); err != nil {
				c.charge(cost)
				// A failed tag is physical tampering caught in the act:
				// ledger it before surfacing the machine-check.
				if c.Telem.Auditing() {
					c.Telem.Audit("integrity-fail", c.Telem.VMForASID(uint32(a.ASID)), err.Error())
				}
				return err
			}
		}
		var fill [LineSize]byte
		end := base + LineSize
		span := LineSize
		if uint64(end) > c.Mem.Size() {
			span = int(PhysAddr(c.Mem.Size()) - base)
		}
		if err := c.Mem.ReadRaw(base, fill[:span]); err != nil {
			c.charge(cost)
			return err
		}
		if a.Encrypted {
			if slot == nil {
				s, err := c.Eng.Slot(a.ASID)
				if err != nil {
					c.charge(cost)
					return err
				}
				slot = s
			}
			decryptFill(slot, base, &fill, span)
			if s := c.stats; s != nil {
				s.decLines.Add(1)
			}
			decrypted++
		}
		if span == LineSize {
			c.Cache.Fill(base, &fill)
		}
		copy(buf[done:done+n], fill[off:off+n])
		done += n
	}
	c.charge(cost)
	if decrypted > 0 && c.Telem.Tracing() {
		c.Telem.Emit(telemetry.KindMemDecrypt,
			c.Telem.VMForASID(uint32(a.ASID)), uint32(a.ASID),
			decrypted*cycles.MemEncryptExtra, uint64(a.PA), uint64(len(buf)))
	}
	return nil
}

// decryptFill decrypts the first span bytes of a line-fill buffer in
// place. The buffer stays on the caller's stack: XEX.decryptArray lets
// it escape on neither XEX path.
func decryptFill(slot *PageCipher, base PhysAddr, fill *[LineSize]byte, span int) {
	slot.x.decryptArray(uint64(base), fill, span)
}

// Write performs a CPU write. The cache is write-through: DRAM always holds
// the current (ciphertext, for encrypted pages) contents.
func (c *Controller) Write(a Access, data []byte) error {
	if err := c.Mem.Check(a.PA, len(data)); err != nil {
		return err
	}
	if len(data) == 0 {
		// An empty store touches no lines; falling through would
		// underflow the touched-line count below and charge ~2^64
		// cycles.
		return nil
	}
	// Resolve the key slot before touching any state: a write with no
	// installed key must fault without mutating cached plaintext, or the
	// cache and DRAM fall out of sync.
	var slot *PageCipher
	if a.Encrypted {
		s, err := c.Eng.Slot(a.ASID)
		if err != nil {
			return err
		}
		slot = s
	}
	// Update any cached plaintext lines in place (no write-allocate); the
	// first line's set counts the transaction.
	tx := len(data)
	done := 0
	for done < len(data) {
		pa := a.PA + PhysAddr(done)
		base := lineBase(pa)
		off := int(pa - base)
		n := LineSize - off
		if n > len(data)-done {
			n = len(data) - done
		}
		c.Cache.WriteAt(pa, data[done:done+n], tx)
		tx = 0
		done += n
	}
	// Charge per cache line touched, as the write buffer drains them.
	lines := touchedLines(a.PA, len(data))
	if !a.Encrypted {
		c.charge(lines * cycles.MemAccess)
		if err := c.Mem.WriteRaw(a.PA, data); err != nil {
			return err
		}
		return c.integUpdate(a.PA, len(data), lines)
	}
	c.charge(lines * (cycles.MemAccess + cycles.MemEncryptExtra))
	if s := c.stats; s != nil {
		s.encLines.Add(lines)
	}
	if c.Telem.Tracing() {
		c.Telem.Emit(telemetry.KindMemEncrypt,
			c.Telem.VMForASID(uint32(a.ASID)), uint32(a.ASID),
			lines*cycles.MemEncryptExtra, uint64(a.PA), uint64(len(data)))
	}
	// Read-modify-write the whole overlapped block-aligned span through
	// the engine in one DRAM round trip. Only partially-overwritten edge
	// blocks need decrypting; interior blocks are fully replaced. The
	// span is clamped to the installed memory, mirroring Read: trailing
	// sub-block bytes at the very top of DRAM are stored raw.
	end := a.PA + PhysAddr(len(data))
	first := a.PA &^ (BlockSize - 1)
	spanEnd := (end + BlockSize - 1) &^ (BlockSize - 1)
	if uint64(spanEnd) > c.Mem.Size() {
		spanEnd = PhysAddr(c.Mem.Size())
	}
	span := int(spanEnd - first)
	if cap(c.rmw) < span {
		c.rmw = make([]byte, span)
	}
	buf := c.rmw[:span]
	if err := c.Mem.ReadRaw(first, buf); err != nil {
		return err
	}
	// fullEnd bounds the whole blocks in the span; a clamped span may
	// leave a raw sub-block tail past it. Only edge blocks that keep
	// pre-existing bytes need decrypting; interior blocks are replaced
	// wholesale.
	fullEnd := first + PhysAddr(span-span%BlockSize)
	if fullEnd > first {
		if first < a.PA || first+BlockSize > end {
			slot.DecryptLine(first, buf[:BlockSize])
		}
		if tail := fullEnd - BlockSize; tail > first && fullEnd > end {
			o := int(tail - first)
			slot.DecryptLine(tail, buf[o:o+BlockSize])
		}
	}
	copy(buf[a.PA-first:], data)
	slot.EncryptLine(first, buf)
	if err := c.Mem.WriteRaw(first, buf); err != nil {
		return err
	}
	return c.integUpdate(a.PA, len(data), lines)
}

// integUpdate re-hashes the protected lines of a store that reached DRAM.
// It runs only on the success path: if the RMW round trip failed, the
// store never landed, and re-hashing would fold whatever DRAM actually
// holds — including a physical tamper — into the trusted tree.
func (c *Controller) integUpdate(pa PhysAddr, n int, lines uint64) error {
	if c.Integ == nil {
		return nil
	}
	c.charge(lines * cycles.IntegrityCheck)
	return c.Integ.Update(pa, n)
}

// ReadPage reads a full page.
func (c *Controller) ReadPage(pfn PFN, encrypted bool, asid ASID, buf *[PageSize]byte) error {
	return c.Read(Access{PA: pfn.Addr(), Encrypted: encrypted, ASID: asid}, buf[:])
}

// FirmwareWrite stores bytes on behalf of the SEV firmware: raw DRAM
// write with cache invalidation and — because the firmware lives in the
// secure processor next to the BMT root — an integrity-tree update.
func (c *Controller) FirmwareWrite(pa PhysAddr, data []byte) error {
	c.Cache.Invalidate(pa, len(data))
	if err := c.Mem.WriteRaw(pa, data); err != nil {
		return err
	}
	if c.Integ != nil {
		return c.Integ.Update(pa, len(data))
	}
	return nil
}

// DMA is the I/O device view of memory: raw DRAM, no keys. SEV hardware
// forbids DMA into encrypted pages precisely because this path cannot
// decrypt; a DMA read of an encrypted page observes ciphertext.
type DMA struct {
	ctl *Controller
}

// DMA returns the DMA port of the controller.
func (c *Controller) DMA() *DMA { return &DMA{ctl: c} }

// Read copies raw DRAM bytes (ciphertext for encrypted pages), charging
// per overlapped cache line like the CPU path — a page-sized DMA is 64
// line beats on the bus, not one. An out-of-range transfer is refused
// before anything is charged.
func (d *DMA) Read(pa PhysAddr, buf []byte) error {
	if err := d.ctl.Mem.Check(pa, len(buf)); err != nil {
		return err
	}
	if len(buf) == 0 {
		return nil
	}
	d.ctl.charge(touchedLines(pa, len(buf)) * cycles.MemAccess)
	if s := d.ctl.stats; s != nil {
		s.dmaReads.Add(1)
	}
	return d.ctl.Mem.ReadRaw(pa, buf)
}

// Write stores raw bytes and invalidates overlapping cache lines, exactly
// as a coherent DMA write would. Charged per overlapped cache line; an
// out-of-range transfer is refused before it charges or invalidates.
func (d *DMA) Write(pa PhysAddr, data []byte) error {
	if err := d.ctl.Mem.Check(pa, len(data)); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	d.ctl.charge(touchedLines(pa, len(data)) * cycles.MemAccess)
	if s := d.ctl.stats; s != nil {
		s.dmaWrites.Add(1)
	}
	d.ctl.Cache.Invalidate(pa, len(data))
	return d.ctl.Mem.WriteRaw(pa, data)
}
