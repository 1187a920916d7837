package kv

import (
	"bytes"
	"fmt"
	"testing"
)

func TestCoalescerMergesAdjacentWrites(t *testing.T) {
	cd := &countingDev{memDev: newMemDev(64)}
	c := NewWriteCoalescer(cd, 8)

	sec := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n*SectorSize) }
	if err := c.WriteSectors(2, sec(0xA1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSectors(3, sec(0xA2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSectors(5, sec(0xA3, 1)); err != nil {
		t.Fatal(err)
	}
	if cd.writeCalls != 0 {
		t.Fatalf("adjacent writes reached the device early: %d calls", cd.writeCalls)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if cd.writeCalls != 1 {
		t.Fatalf("flush issued %d requests, want 1", cd.writeCalls)
	}
	for i, b := range []byte{0xA1, 0xA2, 0xA2, 0xA3} {
		got := cd.data[(2+i)*SectorSize]
		if got != b {
			t.Fatalf("sector %d = %#x, want %#x", 2+i, got, b)
		}
	}
	st := c.Stats()
	if st.Writes != 3 || st.SeqWrites != 2 || st.Flushes != 1 || st.GroupCommits != 1 || st.MaxSpan != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCoalescerFlushesOnGap(t *testing.T) {
	cd := &countingDev{memDev: newMemDev(64)}
	c := NewWriteCoalescer(cd, 8)
	one := make([]byte, SectorSize)
	if err := c.WriteSectors(2, one); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSectors(10, one); err != nil {
		t.Fatal(err)
	}
	if cd.writeCalls != 1 {
		t.Fatalf("gap write flushed %d requests, want 1", cd.writeCalls)
	}
	st := c.Stats()
	if st.SeqWrites != 0 || st.GroupCommits != 0 {
		t.Fatalf("non-adjacent writes counted as sequential: %+v", st)
	}
	// Backward jump (the terminator-then-record pattern) also flushes.
	if err := c.WriteSectors(4, one); err != nil {
		t.Fatal(err)
	}
	if cd.writeCalls != 2 {
		t.Fatalf("backward write flushed %d requests, want 2", cd.writeCalls)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if cd.writeCalls != 3 {
		t.Fatalf("final flush: %d requests, want 3", cd.writeCalls)
	}
}

func TestCoalescerReadSeesPendingSpan(t *testing.T) {
	cd := &countingDev{memDev: newMemDev(64)}
	c := NewWriteCoalescer(cd, 8)
	payload := bytes.Repeat([]byte{0x5A}, SectorSize)
	if err := c.WriteSectors(4, payload); err != nil {
		t.Fatal(err)
	}
	// Disjoint read passes through without disturbing the span.
	buf := make([]byte, SectorSize)
	if err := c.ReadSectors(20, buf); err != nil {
		t.Fatal(err)
	}
	if cd.writeCalls != 0 {
		t.Fatal("disjoint read flushed the span")
	}
	// Overlapping read must observe the buffered write.
	if err := c.ReadSectors(4, buf); err != nil {
		t.Fatal(err)
	}
	if cd.writeCalls != 1 {
		t.Fatal("overlapping read did not flush the span")
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("read missed the pending write")
	}
}

func TestCoalescerOversizedSpanPassesThrough(t *testing.T) {
	cd := &countingDev{memDev: newMemDev(64)}
	c := NewWriteCoalescer(cd, 4)
	big := bytes.Repeat([]byte{1}, 6*SectorSize)
	if err := c.WriteSectors(0, big); err != nil {
		t.Fatal(err)
	}
	if cd.writeCalls != 1 {
		t.Fatalf("oversized span buffered: %d calls", cd.writeCalls)
	}
	if st := c.Stats(); st.MaxSpan != 6 || st.Flushes != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStoreApplyThroughCoalescerTwoRequests is the heart of the group
// commit claim: a batched Apply through the coalescer reaches the block
// device as exactly two requests — the terminator, then the whole record
// span — regardless of batch depth.
func TestStoreApplyThroughCoalescerTwoRequests(t *testing.T) {
	cd := &countingDev{memDev: newMemDev(256)}
	c := NewWriteCoalescer(cd, 0)
	s := formatted(t, c, 0, 256)
	var ops []Op
	for i := 0; i < 7; i++ {
		ops = append(ops, Op{Key: string(rune('a' + i)), Value: bytes.Repeat([]byte{byte(i)}, 100*(i+1))})
	}
	before := cd.writeCalls
	if err := s.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if got := cd.writeCalls - before; got != 2 {
		t.Fatalf("batched Apply issued %d device requests, want 2", got)
	}
	// The span request is sequential from the old log head.
	if st := c.Stats(); st.GroupCommits < 1 || st.SeqWrites < uint64(len(ops)-1) {
		t.Fatalf("stats %+v: span did not coalesce", st)
	}
	// And the result replays (through a fresh coalescer, too).
	s2, err := Open(NewWriteCoalescer(cd.memDev, 0), 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(ops) {
		t.Fatalf("replayed %d keys, want %d", s2.Len(), len(ops))
	}
}

// TestApplyAllocsOnlyIndexCopies guards the commit path: in steady state
// an overwrite batch through the coalescer allocates at most the index's
// copy of each value (none when the value fits the key's old buffer, see
// TestOverwriteReusesValueBuffer). Records, the terminator sector and
// the crc input all reuse store-owned or caller-owned bytes.
func TestApplyAllocsOnlyIndexCopies(t *testing.T) {
	const runs = 100
	c := NewWriteCoalescer(newMemDev(2048), 0)
	s := formatted(t, c, 0, 2048)
	ops := make([]Op, 4)
	for i := range ops {
		ops[i] = Op{Key: fmt.Sprintf("key-%d", i), Value: bytes.Repeat([]byte{byte(i + 1)}, 100)}
	}
	if err := s.Apply(ops); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if err := s.Apply(ops); err != nil {
			t.Fatal(err)
		}
	})
	if got := s.UsedSectors(); got != (runs+2)*uint64(len(ops)) {
		t.Fatalf("log holds %d sectors, want one per record", got)
	}
	if allocs > float64(len(ops)) {
		t.Fatalf("an Apply of %d overwrites allocated %v times, want at most %d index copies",
			len(ops), allocs, len(ops))
	}
}
