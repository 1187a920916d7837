// Package kv is a small append-only key-value store designed to run
// *inside* a protected guest: it keeps its index in guest (encrypted)
// memory and persists records through any of the platform's block
// front-ends. Running it under Fidelius demonstrates the paper's
// motivating scenario — a tenant service whose data stays confidential
// against the hypervisor, the driver domain and the physical disk.
//
// On-disk layout: a region starts with a versioned superblock sector
// (magic, epoch, active half, crc) followed by two equal log halves, of
// which only one is live at a time. A log is a sequence of sector-aligned
// records,
//
//	[4B magic][4B keyLen][4B valLen][8B epoch][4B crc][key][value][padding to sector]
//
// terminated by a zero sector. A valLen of 0xFFFFFFFF marks a tombstone
// (the key is deleted; no value bytes follow), so an empty value and a
// deletion are distinct on disk. The crc (IEEE CRC-32 over the length
// fields, epoch, key and value) exists for group commit: a batch is
// written as one contiguous record span after the terminator, so a
// crash can tear the span mid-record, leaving a head sector whose
// lengths parse but whose tail was never written. Replay detects that
// with the crc and truncates the log at the torn record — the longest
// valid prefix wins. The store is crash-simple: reopening scans the log
// and rebuilds the index.
//
// Write ordering: every commit (single Put/Delete or a batched Apply)
// writes the *new* terminator first, then the record span. A torn
// sequence therefore always replays to a valid prefix of the committed
// ops. When the device implements Flusher (see WriteCoalescer), the
// store inserts a flush barrier between the terminator and the span so
// coalescing cannot reorder them into one request. If the span itself
// fails mid-commit, the error path seals the log: the landed prefix is
// zeroed back out so a later crash cannot replay mutations the caller
// was told had failed.
//
// Compaction: Compact rewrites the live records as one group-committed
// span into the idle half and then flips the superblock — a single
// sector-atomic write — to the new half and a new epoch. A crash at any
// point replays either the old log or the new one, never a mix: before
// the flip the superblock still names the old half, and after it the
// epoch tag in every record header lets replay reject stale debris left
// over from the half's previous life.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// BlockDev is the sector interface the store persists through — satisfied
// by the baseline and both protected front-ends.
//
// WriteSectors must neither retain nor modify data: the store passes the
// same scratch buffer to every write and rewrites it between calls, so a
// device that keeps the slice, or encrypts in place, corrupts the log.
type BlockDev interface {
	WriteSectors(lba uint64, data []byte) error
	ReadSectors(lba uint64, buf []byte) error
}

// SectorSize matches the platform's disk sector size.
const SectorSize = 512

const magic = 0xF1DE1105

// superMagic marks the superblock sector of a formatted region.
const superMagic = 0xF1DE5B0C

// headerSize is the fixed record prefix: magic, keyLen, valLen, epoch, crc.
const headerSize = 24

// Bounds enforced on both the write path (append/Apply) and replay. The
// pair must agree: a record accepted by Put but rejected by replay would
// make the store unopenable.
const (
	MaxKeyLen   = 4096
	MaxValueLen = 1 << 20
)

// tombstoneLen in the valLen header field marks a deletion record. The
// sentinel keeps tombstones distinct from legitimate empty values, which
// earlier versions conflated (a Put of an empty value acted as a Delete).
const tombstoneLen = ^uint32(0)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("kv: key not found")

// ErrCorrupt reports an undecodable log.
var ErrCorrupt = errors.New("kv: corrupt log")

// ErrTooLarge reports a key or value exceeding the on-disk bounds. It is
// returned at append time — before this check existed an oversized Put
// succeeded and then poisoned the log, so the *next* Open failed with
// ErrCorrupt.
var ErrTooLarge = errors.New("kv: key or value too large")

// ErrFull reports a commit (or a compaction's live set) that does not
// fit the log region. The store is unchanged; Compact can reclaim dead
// records before a retry.
var ErrFull = errors.New("kv: store full")

// Flusher is implemented by buffering devices (WriteCoalescer). The
// store flushes at its two commit barriers: after the terminator write
// and after the record span.
type Flusher interface {
	Flush() error
}

// Op is one mutation in a group commit. Delete ignores Value.
type Op struct {
	Key    string
	Value  []byte
	Delete bool
}

// StoreStats counts maintenance activity since Open.
type StoreStats struct {
	Compactions      uint64 // completed Compact cycles
	ReclaimedSectors uint64 // log sectors reclaimed across all compactions
	SealedCommits    uint64 // failed Apply spans zeroed back out of the log
}

// Format initialises a fresh store region of sectors sectors at baseLBA:
// a versioned superblock naming half 0 and epoch 1, followed by two equal
// log halves of (sectors-1)/2 sectors each. Only the active half needs a
// terminator; the idle half is fully rewritten (terminator first) by the
// Compact that activates it. Open refuses a region Format has not laid
// out — through an encrypting front-end a never-written disk does not
// even read back as zeros.
func Format(dev BlockDev, baseLBA uint64, sectors int) error {
	if sectors < 3 {
		return fmt.Errorf("kv: store region needs >= 3 sectors, got %d", sectors)
	}
	buf := make([]byte, SectorSize)
	if err := dev.WriteSectors(baseLBA, encodeSuper(buf, 1, 0)); err != nil {
		return err
	}
	clear(buf)
	if err := dev.WriteSectors(baseLBA+1, buf); err != nil {
		return err
	}
	if fl, ok := dev.(Flusher); ok {
		return fl.Flush()
	}
	return nil
}

// encodeSuper encodes the superblock into buf, one zeroed sector, and
// returns it: magic, epoch, active half, crc. It is written as one
// sector, so a flip is atomic under the sector-granular crash model.
func encodeSuper(buf []byte, epoch uint64, half int) []byte {
	binary.LittleEndian.PutUint32(buf[0:], superMagic)
	binary.LittleEndian.PutUint64(buf[4:], epoch)
	binary.LittleEndian.PutUint32(buf[12:], uint32(half))
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(buf[4:16]))
	return buf
}

// Store is one open key-value store.
type Store struct {
	dev     BlockDev
	fl      Flusher // dev's flush barrier, nil when dev does not buffer
	baseLBA uint64
	epoch   uint64 // commit epoch stamped into every record
	half    int    // active half
	halfLen uint64 // sectors per half
	logBase uint64 // first sector of the active half
	maxLBA  uint64 // end of the active half (exclusive)
	nextLBA uint64
	index   map[string][]byte
	live    uint64 // sectors a compaction would keep (latest record per live key)
	stats   StoreStats
	scratch []byte   // record, terminator and seal buffer, reused across writes
	keys    []string // Compact's key list, reused (and kept) until the next Compact
}

// Open recovers the store occupying [baseLBA, baseLBA+sectors) on the
// device: it reads the superblock and replays the active half's log. The
// region must have been laid out by Format; one without a valid
// superblock is ErrCorrupt.
func Open(dev BlockDev, baseLBA uint64, sectors int) (*Store, error) {
	head := make([]byte, SectorSize)
	if err := dev.ReadSectors(baseLBA, head); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(head[0:]); m != superMagic {
		return nil, fmt.Errorf("%w: no superblock at lba %d (magic %#x)", ErrCorrupt, baseLBA, m)
	}
	if sectors < 3 {
		return nil, fmt.Errorf("%w: store region needs >= 3 sectors", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(head[16:]) != crc32.ChecksumIEEE(head[4:16]) {
		return nil, fmt.Errorf("%w: superblock crc mismatch", ErrCorrupt)
	}
	half := int(binary.LittleEndian.Uint32(head[12:]))
	if half > 1 {
		return nil, fmt.Errorf("%w: superblock names half %d", ErrCorrupt, half)
	}
	halfLen := uint64((sectors - 1) / 2)
	logBase := baseLBA + 1 + uint64(half)*halfLen
	s := &Store{
		dev:     dev,
		baseLBA: baseLBA,
		epoch:   binary.LittleEndian.Uint64(head[4:]),
		half:    half,
		halfLen: halfLen,
		logBase: logBase,
		maxLBA:  logBase + halfLen,
		nextLBA: logBase,
		index:   make(map[string][]byte),
	}
	s.fl, _ = dev.(Flusher)
	if err := s.replay(); err != nil {
		return nil, err
	}
	return s, nil
}

func recordSectors(keyLen, valLen int) int {
	return (headerSize + keyLen + valLen + SectorSize - 1) / SectorSize
}

// recordCRC covers the length fields, epoch and the payload (key then
// value, payload bytes long) of an encoded record, so a torn or patched
// record cannot keep a stale checksum from a different geometry or a
// different life of the half.
func recordCRC(rec []byte, payload int) uint32 {
	c := crc32.ChecksumIEEE(rec[4:20])
	return crc32.Update(c, crc32.IEEETable, rec[headerSize:headerSize+payload])
}

// replay scans the active log rebuilding the index. Each record is read
// exactly once: the head sector is parsed in place and only the tail
// sectors (if any) are fetched afterwards.
//
// Any unparseable or stale-epoch record ends the log rather than failing
// the open: after a flip the idle half is recycled full of old record
// bytes, and a torn commit there legitimately leaves arbitrary debris
// (even mid-value bytes of a prior epoch) at the log tail. The epoch tag
// plus crc decide what is part of this half's current life.
func (s *Store) replay() error {
	var buf []byte
	head := make([]byte, SectorSize)
	for s.nextLBA < s.maxLBA {
		if err := s.dev.ReadSectors(s.nextLBA, head); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(head[0:]) != magic {
			return nil // the terminator, or recycled-half debris: the log ends here
		}
		keyLen := int(binary.LittleEndian.Uint32(head[4:]))
		rawVal := binary.LittleEndian.Uint32(head[8:])
		dead := rawVal == tombstoneLen
		valLen := int(rawVal)
		if dead {
			valLen = 0
		}
		if keyLen <= 0 || keyLen > MaxKeyLen || valLen < 0 || valLen > MaxValueLen {
			return nil
		}
		n := recordSectors(keyLen, valLen)
		if s.nextLBA+uint64(n) > s.maxLBA {
			return nil
		}
		if binary.LittleEndian.Uint64(head[12:]) != s.epoch {
			// A record from a previous life of this half (pre-compaction
			// debris): not part of the current log.
			return nil
		}
		if cap(buf) < n*SectorSize {
			buf = make([]byte, n*SectorSize)
		}
		buf = buf[:n*SectorSize]
		copy(buf, head)
		if n > 1 {
			if err := s.dev.ReadSectors(s.nextLBA+1, buf[SectorSize:]); err != nil {
				return err
			}
		}
		if binary.LittleEndian.Uint32(buf[20:]) != recordCRC(buf, keyLen+valLen) {
			// Torn tail of a group commit: the head sector landed but the
			// rest of the span did not. Everything before this record is
			// the longest valid prefix — stop here and let the next commit
			// overwrite the debris.
			return nil
		}
		key := string(buf[headerSize : headerSize+keyLen])
		s.applyIndex(key, buf[headerSize+keyLen:headerSize+keyLen+valLen], dead)
		s.nextLBA += uint64(n)
	}
	return nil
}

// applyIndex installs one decoded mutation into the index, keeping the
// live-sector count (what a compaction would rewrite) in step. An
// overwrite of a live key reuses its value buffer when the new value
// fits, which GetView's contract (a view is valid only until the next
// mutation of its key) allows; Get copies and ValueCache entries are
// the caller's own bytes and keep theirs.
func (s *Store) applyIndex(key string, val []byte, dead bool) {
	old, ok := s.index[key]
	if ok {
		s.live -= uint64(recordSectors(len(key), len(old)))
	}
	switch {
	case dead:
		delete(s.index, key)
		return
	case ok:
		s.index[key] = append(old[:0], val...)
	default:
		s.index[key] = append([]byte{}, val...)
	}
	s.live += uint64(recordSectors(len(key), len(val)))
}

// validate enforces the same bounds replay does, at append time.
func validate(op Op) error {
	if op.Key == "" {
		return errors.New("kv: empty key")
	}
	if len(op.Key) > MaxKeyLen {
		return fmt.Errorf("%w: key is %d bytes (max %d)", ErrTooLarge, len(op.Key), MaxKeyLen)
	}
	if !op.Delete && len(op.Value) > MaxValueLen {
		return fmt.Errorf("%w: value is %d bytes (max %d)", ErrTooLarge, len(op.Value), MaxValueLen)
	}
	return nil
}

// zeroed returns the store's scratch buffer, n bytes long and all zeros.
// Every write the store issues is staged in it, which BlockDev's
// no-retain contract makes safe; the zeroing is what encodeRecord's
// padding and the terminator sector rely on.
func (s *Store) zeroed(n int) []byte {
	if cap(s.scratch) < n {
		s.scratch = make([]byte, n)
	}
	b := s.scratch[:n]
	clear(b)
	return b
}

// writeTerminator writes the zero sector that ends a log.
func (s *Store) writeTerminator(lba uint64) error {
	return s.dev.WriteSectors(lba, s.zeroed(SectorSize))
}

// encodeRecord fills buf (recordSectors worth, pre-zeroed) with op's
// on-disk record, stamped with the store's current commit epoch.
func encodeRecord(buf []byte, op Op, epoch uint64) {
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(op.Key)))
	if op.Delete {
		binary.LittleEndian.PutUint32(buf[8:], tombstoneLen)
	} else {
		binary.LittleEndian.PutUint32(buf[8:], uint32(len(op.Value)))
	}
	binary.LittleEndian.PutUint64(buf[12:], epoch)
	val := op.Value
	if op.Delete {
		val = nil
	}
	copy(buf[headerSize:], op.Key)
	copy(buf[headerSize+len(op.Key):], val)
	binary.LittleEndian.PutUint32(buf[20:], recordCRC(buf, len(op.Key)+len(val)))
}

func (s *Store) flush() error {
	if s.fl != nil {
		return s.fl.Flush()
	}
	return nil
}

// seal re-establishes "the log ends at nextLBA" after a failed commit.
// Without it the landed prefix of the failed span is a valid log
// extension — the caller was told those mutations failed, but a later
// crash would replay them and they would resurrect. Zeroing only the
// head sector is not enough either: the orphan records behind it have
// valid crcs and could be re-exposed at a record boundary by a later
// torn commit, so the whole failed span is zeroed. Best effort — the
// device is already failing, and the original commit error is what the
// caller sees.
func (s *Store) seal(total uint64) {
	_ = s.dev.WriteSectors(s.nextLBA, s.zeroed(int(total)*SectorSize))
	_ = s.flush()
	s.stats.SealedCommits++
}

// Apply group-commits a batch of mutations: one terminator write plus
// one contiguous record span, so a batch of N ops costs the same two
// non-sequential disk writes a single Put used to. Ops land in the index
// in slice order (a later op on the same key wins), and the resulting
// log bytes are identical to issuing the ops serially. On error nothing
// is applied to the index and the log is sealed back to its pre-batch
// length; a torn span on disk replays to a valid prefix of the batch.
func (s *Store) Apply(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	total := uint64(0)
	for _, op := range ops {
		if err := validate(op); err != nil {
			return err
		}
		valLen := len(op.Value)
		if op.Delete {
			valLen = 0
		}
		total += uint64(recordSectors(len(op.Key), valLen))
	}
	if s.nextLBA+total > s.maxLBA {
		return ErrFull
	}
	// Terminator first, then the span: a torn sequence still replays. An
	// exact-fit span has nowhere to put a terminator — replay's region
	// bound is the terminator there, and the next commit reports ErrFull.
	if s.nextLBA+total < s.maxLBA {
		if err := s.writeTerminator(s.nextLBA + total); err != nil {
			return err
		}
	}
	// Barrier: the terminator must reach the device before any record so
	// a buffering device cannot merge them into one (reorderable) write.
	if err := s.flush(); err != nil {
		return err
	}
	lba := s.nextLBA
	for _, op := range ops {
		valLen := len(op.Value)
		if op.Delete {
			valLen = 0
		}
		n := recordSectors(len(op.Key), valLen)
		buf := s.zeroed(n * SectorSize)
		encodeRecord(buf, op, s.epoch)
		if err := s.dev.WriteSectors(lba, buf); err != nil {
			s.seal(total)
			return err
		}
		lba += uint64(n)
	}
	if err := s.flush(); err != nil {
		s.seal(total)
		return err
	}
	s.nextLBA = lba
	for _, op := range ops {
		s.applyIndex(op.Key, op.Value, op.Delete)
	}
	return nil
}

// Compact rewrites the live records (sorted by key, current epoch + 1)
// as one group-committed span into the idle half, then flips the
// superblock to name the new half — a single sector-atomic write, the
// only point where the live log changes. A crash strictly before the
// flip replays the old half untouched; a crash at or after it replays
// exactly the compacted log (plus any later commits). Old-epoch debris
// beyond the compacted span is rejected by replay's epoch check, so the
// two logs can never mix.
func (s *Store) Compact() error {
	keys := s.keys[:0]
	for k := range s.index {
		keys = append(keys, k)
	}
	s.keys = keys
	slices.Sort(keys)
	total := uint64(0)
	for _, k := range keys {
		total += uint64(recordSectors(len(k), len(s.index[k])))
	}
	if total > s.halfLen {
		return ErrFull // the live set alone overflows a half
	}
	newEpoch := s.epoch + 1
	newHalf := 1 - s.half
	dstBase := s.baseLBA + 1 + uint64(newHalf)*s.halfLen
	// Same ordering as Apply: terminator, barrier, span, barrier. None of
	// it is live until the flip, but the final flush below must know the
	// whole new log is on the device before the superblock moves.
	if total < s.halfLen {
		if err := s.writeTerminator(dstBase + total); err != nil {
			return err
		}
	}
	if err := s.flush(); err != nil {
		return err
	}
	lba := dstBase
	for _, k := range keys {
		v := s.index[k]
		n := recordSectors(len(k), len(v))
		buf := s.zeroed(n * SectorSize)
		encodeRecord(buf, Op{Key: k, Value: v}, newEpoch)
		if err := s.dev.WriteSectors(lba, buf); err != nil {
			return err // old half still live; new half is inert debris
		}
		lba += uint64(n)
	}
	if err := s.flush(); err != nil {
		return err
	}
	// The flip.
	if err := s.dev.WriteSectors(s.baseLBA, encodeSuper(s.zeroed(SectorSize), newEpoch, newHalf)); err != nil {
		return err
	}
	if err := s.flush(); err != nil {
		return err
	}
	reclaimed := s.UsedSectors() - total
	s.epoch = newEpoch
	s.half = newHalf
	s.logBase = dstBase
	s.maxLBA = dstBase + s.halfLen
	s.nextLBA = lba
	s.live = total
	s.stats.Compactions++
	s.stats.ReclaimedSectors += reclaimed
	return nil
}

// GarbageRatio reports the fraction of the log occupied by dead records
// (superseded versions and applied tombstones).
func (s *Store) GarbageRatio() float64 {
	used := s.UsedSectors()
	if used == 0 {
		return 0
	}
	return 1 - float64(s.live)/float64(used)
}

// NeedsCompact reports whether a Compact would both succeed and reclaim
// space: at least minGarbage of the log is dead, and the live set fits a
// half.
func (s *Store) NeedsCompact(minGarbage float64) bool {
	return s.UsedSectors() > s.live && s.GarbageRatio() >= minGarbage && s.live <= s.halfLen
}

// Put appends a record and updates the index. An empty (or nil) value is
// a real value: it is stored, returned by Get as an empty slice, and the
// key stays live — deletion is a distinct tombstone record (see Delete).
// The new log terminator is written first so a crash between the two
// writes leaves a valid log.
func (s *Store) Put(key string, value []byte) error {
	return s.Apply([]Op{{Key: key, Value: value}})
}

// Get returns a copy of the current value of a key.
func (s *Store) Get(key string) ([]byte, error) {
	v, err := s.GetView(key)
	if err != nil {
		return nil, err
	}
	return append([]byte{}, v...), nil
}

// GetView returns the store's own backing bytes for a key, without the
// per-call copy Get pays. The slice is read-only and only valid until
// the next mutation of that key, which may overwrite it in place;
// callers that hold it across commits, or pass it as the value of an
// Apply that also mutates its key, must copy it first.
func (s *Store) GetView(key string) ([]byte, error) {
	v, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return v, nil
}

// Len reports the number of live keys.
func (s *Store) Len() int { return len(s.index) }

// UsedSectors reports the active log length in sectors (superblock
// excluded).
func (s *Store) UsedSectors() uint64 { return s.nextLBA - s.logBase }

// HalfSectors reports the log capacity of each half.
func (s *Store) HalfSectors() uint64 { return s.halfLen }

// Stats reports maintenance counters accumulated since Open.
func (s *Store) Stats() StoreStats { return s.stats }
