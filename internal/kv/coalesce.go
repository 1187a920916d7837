package kv

import "errors"

// CoalesceStats counts what the coalescer did to the write stream. The
// interesting ratio is SeqWrites/Writes — how much of the store's write
// traffic arrived adjacent to the pending span and merged into it — and
// GroupCommits, the number of flushed requests that carried more than
// one logical write.
type CoalesceStats struct {
	Writes       uint64 // WriteSectors calls observed
	SeqWrites    uint64 // calls merged onto the tail of the pending span
	Flushes      uint64 // requests issued to the underlying device
	GroupCommits uint64 // flushed requests that merged >= 2 calls
	MaxSpan      int    // largest single request, in sectors
}

// WriteCoalescer is a small write-behind buffer between the store and a
// block front-end. Writes whose LBA lands exactly at the tail of the
// pending span are appended to it; anything else (or an overlapping
// read, or an explicit Flush) pushes the span to the device as one
// sequential WriteSectors request. Under the seek model in
// internal/xen/blkio.go a span of N adjacent records then costs at most
// one seek instead of N.
//
// The coalescer is not a cache: reads that do not overlap the pending
// span pass straight through, and Flush is the only durability point —
// the Store inserts its own barriers (see Store.Apply).
type WriteCoalescer struct {
	dev    BlockDev
	lba    uint64 // start of the pending span
	buf    []byte // pending span payload
	max    int    // span cap, sectors
	merged int    // logical writes in the pending span
	stats  CoalesceStats
}

// DefaultCoalesceSectors caps the pending span. It comfortably covers a
// full serve-ring batch of small records while staying within a couple
// of block-layer data windows.
const DefaultCoalesceSectors = 32

// NewWriteCoalescer wraps dev with a write-behind span of up to
// maxSectors sectors (DefaultCoalesceSectors when <= 0).
func NewWriteCoalescer(dev BlockDev, maxSectors int) *WriteCoalescer {
	if maxSectors <= 0 {
		maxSectors = DefaultCoalesceSectors
	}
	return &WriteCoalescer{
		dev: dev,
		max: maxSectors,
		buf: make([]byte, 0, maxSectors*SectorSize),
	}
}

func (c *WriteCoalescer) end() uint64 { return c.lba + uint64(len(c.buf)/SectorSize) }

// WriteSectors buffers or merges the write; only non-adjacent writes and
// span overflow reach the device immediately. A buffered write is copied
// into the pending span, so data is never retained (see BlockDev).
func (c *WriteCoalescer) WriteSectors(lba uint64, data []byte) error {
	if len(data) == 0 || len(data)%SectorSize != 0 {
		return errors.New("kv: coalesced write is not sector aligned")
	}
	c.stats.Writes++
	if len(c.buf) > 0 && lba == c.end() && len(c.buf)+len(data) <= c.max*SectorSize {
		c.buf = append(c.buf, data...)
		c.merged++
		c.stats.SeqWrites++
		return nil
	}
	if err := c.Flush(); err != nil {
		return err
	}
	if len(data) >= c.max*SectorSize {
		// Oversized span: already as sequential as it gets, pass through.
		c.stats.Flushes++
		if n := len(data) / SectorSize; n > c.stats.MaxSpan {
			c.stats.MaxSpan = n
		}
		return c.dev.WriteSectors(lba, data)
	}
	c.lba = lba
	c.buf = append(c.buf[:0], data...)
	c.merged = 1
	return nil
}

// ReadSectors reads through the coalescer. A read overlapping the
// pending span flushes it first so the caller sees its own writes;
// disjoint reads do not disturb the span.
func (c *WriteCoalescer) ReadSectors(lba uint64, buf []byte) error {
	if len(c.buf) > 0 {
		n := uint64((len(buf) + SectorSize - 1) / SectorSize)
		if lba < c.end() && lba+n > c.lba {
			if err := c.Flush(); err != nil {
				return err
			}
		}
	}
	return c.dev.ReadSectors(lba, buf)
}

// Flush pushes the pending span to the device as one request.
func (c *WriteCoalescer) Flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	c.stats.Flushes++
	if c.merged > 1 {
		c.stats.GroupCommits++
	}
	if n := len(c.buf) / SectorSize; n > c.stats.MaxSpan {
		c.stats.MaxSpan = n
	}
	err := c.dev.WriteSectors(c.lba, c.buf)
	c.buf = c.buf[:0]
	c.merged = 0
	return err
}

// Stats returns a snapshot of the coalescer's counters.
func (c *WriteCoalescer) Stats() CoalesceStats { return c.stats }
