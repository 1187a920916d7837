package kv

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
)

// failDev injects one WriteSectors error at a chosen call number (1-based,
// counted from arming), simulating a device fault mid-span.
type failDev struct {
	*memDev
	armed    bool
	calls    int
	failAt   int
	injected error
}

func (d *failDev) WriteSectors(lba uint64, data []byte) error {
	if d.armed {
		d.calls++
		if d.calls == d.failAt {
			return d.injected
		}
	}
	return d.memDev.WriteSectors(lba, data)
}

// TestApplyErrorSealsLog is the regression test for the failure-path
// resurrection bug: a mid-span WriteSectors error used to leave the
// landed record prefix as a valid log extension, so mutations the
// caller was told had failed came back after a crash. The error path
// now seals the log (zeroes the whole failed span); this fails the
// write at every record index and proves the reopened store never shows
// any of the erred batch.
func TestApplyErrorSealsLog(t *testing.T) {
	base := map[string]string{"alpha": "one", "beta": "two"}
	batch := []Op{
		{Key: "alpha", Value: bytes.Repeat([]byte{0xA1}, 100)},   // overwrite, 1 sector
		{Key: "gamma", Value: bytes.Repeat([]byte{0xB2}, 900)},   // new, 2 sectors
		{Key: "beta", Delete: true},                              // tombstone, 1 sector
		{Key: "delta", Value: bytes.Repeat([]byte{0xC3}, 1600)},  // new, 4 sectors
		{Key: "epsilon", Value: bytes.Repeat([]byte{0xD4}, 100)}, // new, 1 sector
	}
	boom := errors.New("injected device fault")
	for rec := 0; rec < len(batch); rec++ {
		dev := &failDev{memDev: newMemDev(64), injected: boom}
		s := formatted(t, dev, 0, 64)
		for k, v := range base {
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		preUsed := s.UsedSectors()
		// Apply's write calls: terminator first, then one per record.
		dev.armed, dev.calls, dev.failAt = true, 0, rec+2
		if err := s.Apply(batch); !errors.Is(err, boom) {
			t.Fatalf("record %d: Apply = %v, want injected fault", rec, err)
		}
		dev.armed = false
		// In-memory state: untouched.
		if s.Len() != len(base) || s.UsedSectors() != preUsed {
			t.Fatalf("record %d: erred Apply mutated the store", rec)
		}
		// Crash and replay: the reopened store must be exactly the
		// pre-batch state — no record of the erred batch visible.
		r, err := Open(dev.memDev, 0, 64)
		if err != nil {
			t.Fatalf("record %d: reopen: %v", rec, err)
		}
		if r.Len() != len(base) {
			t.Fatalf("record %d: reopen found %d keys, want %d", rec, r.Len(), len(base))
		}
		for k, v := range base {
			got, err := r.Get(k)
			if err != nil || string(got) != v {
				t.Fatalf("record %d: reopen %q = %q, %v", rec, k, got, err)
			}
		}
		if r.UsedSectors() != preUsed {
			t.Fatalf("record %d: reopen used %d sectors, want %d — failed span replayed",
				rec, r.UsedSectors(), preUsed)
		}
		// The seal must have zeroed the whole failed span, not just its
		// head: orphan records with valid crcs could otherwise be
		// re-exposed by a later torn commit. The active half starts
		// right after the superblock.
		for lba := 1 + preUsed; lba < 1+preUsed+9; lba++ {
			var sec [SectorSize]byte
			if err := dev.memDev.ReadSectors(lba, sec[:]); err != nil {
				break
			}
			if !bytes.Equal(sec[:], make([]byte, SectorSize)) {
				t.Fatalf("record %d: sector %d of the failed span not zeroed", rec, lba)
			}
		}
		if s.Stats().SealedCommits != 1 {
			t.Fatalf("record %d: SealedCommits = %d", rec, s.Stats().SealedCommits)
		}
		// The surviving store keeps working: the same batch applies
		// cleanly once the fault clears.
		if err := s.Apply(batch); err != nil {
			t.Fatalf("record %d: retry after fault: %v", rec, err)
		}
		r2, err := Open(dev.memDev, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := r2.Get("delta"); err != nil || len(v) != 1600 {
			t.Fatalf("record %d: retry not replayed: %v", rec, err)
		}
	}
}

// TestExactFitCommit pins the exact-fit boundary behavior: a span that
// fills the active half to exactly maxLBA has nowhere to put a
// terminator — the half's bound itself ends the log. The commit must
// succeed, replay fully, and the next commit must report ErrFull instead
// of corrupting. Both halves are covered; half 1 ends at the region end,
// which is also the device end here, so a write past it fails loudly.
func TestExactFitCommit(t *testing.T) {
	val := bytes.Repeat([]byte{7}, 2*SectorSize-headerSize-2) // key "kN" => exactly 2 sectors
	const sectors = 17                                        // superblock + two halves of 8
	for _, tc := range []struct {
		name  string
		flips int
	}{
		{"compactable", 0},
		{"flipped", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := newMemDev(sectors)
			s := formatted(t, dev, 0, sectors)
			for i := 0; i < tc.flips; i++ {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			var batch []Op
			for i := 0; i < 4; i++ {
				batch = append(batch, Op{Key: fmt.Sprintf("k%d", i), Value: val})
			}
			if err := s.Apply(batch); err != nil {
				t.Fatalf("exact-fit commit: %v", err)
			}
			if free := s.UsedSectors(); free != 8 {
				t.Fatalf("used %d sectors, want 8 (exact fit)", free)
			}
			r, err := Open(dev, 0, sectors)
			if err != nil {
				t.Fatalf("reopen after exact fit: %v", err)
			}
			if r.Len() != 4 || r.UsedSectors() != 8 {
				t.Fatalf("replayed %d keys over %d sectors, want 4 over 8", r.Len(), r.UsedSectors())
			}
			// The next commit must fail loudly, not overrun or corrupt.
			if err := r.Put("overflow", []byte("x")); !errors.Is(err, ErrFull) {
				t.Fatalf("post-fill Put = %v, want ErrFull", err)
			}
			if _, err := Open(dev, 0, sectors); err != nil {
				t.Fatalf("store corrupted by rejected overflow: %v", err)
			}
		})
	}
}

// compactFixture builds a compactable store with a garbage-heavy log:
// live keys a (A1) and b (B1), dead keys c/d/e, one dead version of b.
func compactFixture(t *testing.T) (*memDev, *Store) {
	t.Helper()
	dev := newMemDev(64)
	s := formatted(t, dev, 0, 41) // halves of 20
	puts := []Op{
		{Key: "a", Value: []byte("A1")},
		{Key: "b", Value: []byte("B-old")},
		{Key: "c", Value: []byte("C1")},
		{Key: "d", Value: []byte("D1")},
		{Key: "e", Value: []byte("E1")},
	}
	if err := s.Apply(puts); err != nil {
		t.Fatal(err)
	}
	dels := []Op{
		{Key: "c", Delete: true},
		{Key: "d", Delete: true},
		{Key: "e", Delete: true},
	}
	if err := s.Apply(dels); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("B1")); err != nil {
		t.Fatal(err)
	}
	return dev, s
}

func TestCompactReclaimsGarbage(t *testing.T) {
	dev, s := compactFixture(t)
	if got := s.UsedSectors(); got != 9 {
		t.Fatalf("fixture used %d sectors, want 9", got)
	}
	if got := s.live; got != 2 {
		t.Fatalf("fixture live %d sectors, want 2", got)
	}
	if !s.NeedsCompact(0.5) {
		t.Fatalf("garbage ratio %.2f did not trigger", s.GarbageRatio())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.UsedSectors(); got != 2 {
		t.Fatalf("compacted log uses %d sectors, want 2", got)
	}
	if st := s.Stats(); st.Compactions != 1 || st.ReclaimedSectors != 7 {
		t.Fatalf("stats = %+v, want 1 compaction, 7 reclaimed", st)
	}
	if s.GarbageRatio() != 0 {
		t.Fatalf("garbage ratio %.2f after compact", s.GarbageRatio())
	}
	if s.epoch != 2 {
		t.Fatalf("epoch %d after compact, want 2", s.epoch)
	}
	// Live content preserved, in memory and across a reopen.
	for _, r := range []*Store{s, reopen(t, dev, 41)} {
		if r.Len() != 2 {
			t.Fatalf("%d keys after compact, want 2", r.Len())
		}
		for k, want := range map[string]string{"a": "A1", "b": "B1"} {
			if v, err := r.Get(k); err != nil || string(v) != want {
				t.Fatalf("%q = %q, %v after compact", k, v, err)
			}
		}
		for _, k := range []string{"c", "d", "e"} {
			if _, err := r.Get(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("dead key %q visible after compact", k)
			}
		}
	}
	// The compacted store keeps accepting commits that land in the new
	// half and replay.
	if err := s.Put("f", []byte("F1")); err != nil {
		t.Fatal(err)
	}
	if v, err := reopen(t, dev, 41).Get("f"); err != nil || string(v) != "F1" {
		t.Fatalf("post-compact put lost: %q, %v", v, err)
	}
}

func reopen(t *testing.T, dev BlockDev, sectors int) *Store {
	t.Helper()
	s, err := Open(dev, 0, sectors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompactCrashAtEveryPoint cuts the device at every sector boundary
// during a compaction and proves the invariant: the reopened store is
// always exactly the live state — either read from the old half (crash
// before the superblock flip) or from the new one (after), never a mix,
// never a resurrection of a dead key or value.
func TestCompactCrashAtEveryPoint(t *testing.T) {
	want := map[string]string{"a": "A1", "b": "B1"}
	for budget := 0; budget <= 12; budget++ {
		dev, s := compactFixture(t)
		preEpoch := s.epoch
		torn := &tornDev{memDev: dev, budget: budget}
		s.dev = torn // crash: writes past the budget silently vanish
		_ = s.Compact()
		r := reopen(t, dev, 41)
		if r.Len() != len(want) {
			t.Fatalf("budget %d: reopened %d keys, want %d", budget, r.Len(), len(want))
		}
		for k, v := range want {
			got, err := r.Get(k)
			if err != nil || string(got) != v {
				t.Fatalf("budget %d: %q = %q, %v", budget, k, got, err)
			}
		}
		for _, k := range []string{"c", "d", "e"} {
			if _, err := r.Get(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("budget %d: dead key %q resurrected", budget, k)
			}
		}
		// The replayed log is wholly old or wholly new, visible in the
		// epoch: pre-flip crashes keep the old epoch and full old log,
		// post-flip ones the new epoch and the compacted log.
		switch r.epoch {
		case preEpoch:
			if r.UsedSectors() != 9 {
				t.Fatalf("budget %d: old-half replay used %d sectors, want 9", budget, r.UsedSectors())
			}
		case preEpoch + 1:
			if r.UsedSectors() != 2 {
				t.Fatalf("budget %d: new-half replay used %d sectors, want 2", budget, r.UsedSectors())
			}
		default:
			t.Fatalf("budget %d: epoch %d", budget, r.epoch)
		}
		// And the survivor keeps working.
		if err := r.Put("post", []byte("crash")); err != nil {
			t.Fatalf("budget %d: post-crash put: %v", budget, err)
		}
		if v, err := reopen(t, dev, 41).Get("post"); err != nil || string(v) != "crash" {
			t.Fatalf("budget %d: post-crash put lost", budget)
		}
	}
}

// TestEpochRejectsStaleDebris builds the cross-epoch resurrection
// scenario: after two compactions a half is recycled with valid-crc
// records from its previous life sitting right behind the log tail. A
// torn commit that lands its first record but not its second would —
// without the epoch tag — splice those old records back into the log as
// a "valid" extension, resurrecting a deleted key.
func TestEpochRejectsStaleDebris(t *testing.T) {
	dev, s := compactFixture(t)
	// Compact twice: live log back in half 0, epoch 3. The old half-0
	// bytes beyond the 2-record span + terminator are epoch-1 debris —
	// in particular the tombstoned key d's original record.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.epoch != 3 || s.UsedSectors() != 2 {
		t.Fatalf("epoch %d, used %d after double compact", s.epoch, s.UsedSectors())
	}
	// Sanity: the debris really is there (old record for d at lba 4 of
	// the pre-compaction log: a, b-old, c, then d).
	var debris [SectorSize]byte
	if err := dev.ReadSectors(4, debris[:]); err != nil {
		t.Fatal(err)
	}
	if string(debris[headerSize:headerSize+1]) != "d" {
		t.Fatalf("fixture drift: expected old record for d at lba 4, got %q", debris[headerSize:headerSize+1])
	}
	// Torn two-record commit: terminator and first record land, second
	// record does not — its slot still holds the old epoch-1 record.
	torn := &tornDev{memDev: dev, budget: 2}
	s.dev = torn
	_ = s.Apply([]Op{
		{Key: "f", Value: []byte("F1")},
		{Key: "g", Value: []byte("G1")},
	})
	r := reopen(t, dev, 41)
	if v, err := r.Get("f"); err != nil || string(v) != "F1" {
		t.Fatalf("landed prefix record lost: %q, %v", v, err)
	}
	if _, err := r.Get("g"); !errors.Is(err, ErrNotFound) {
		t.Fatal("unlanded record visible")
	}
	if _, err := r.Get("d"); !errors.Is(err, ErrNotFound) {
		t.Fatal("stale-epoch debris resurrected a deleted key")
	}
	if v, err := r.Get("b"); err != nil || string(v) != "B1" {
		t.Fatalf("b = %q, %v — stale debris leaked", v, err)
	}
}

// TestCompactAllLiveNoReclaim: a half entirely full of live data has
// nothing to reclaim — NeedsCompact must say so (the guest's trigger),
// and an explicit Compact is an exact-fit rewrite into the other half
// that loses nothing. (Live can never *exceed* a half: it was written
// into one, so Compact's own ErrFull bound is unreachable from here.)
func TestCompactAllLiveNoReclaim(t *testing.T) {
	dev := newMemDev(32)
	s := formatted(t, dev, 0, 9) // halves of 4
	val := bytes.Repeat([]byte{1}, SectorSize)
	for i := 0; i < 2; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), val); err != nil { // 2 sectors each
			t.Fatal(err)
		}
	}
	if s.NeedsCompact(0.0) {
		t.Fatal("all-live store claims compaction would help")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("exact-fit all-live compact: %v", err)
	}
	if st := s.Stats(); st.ReclaimedSectors != 0 {
		t.Fatalf("reclaimed %d sectors from an all-live log", st.ReclaimedSectors)
	}
	for i := 0; i < 2; i++ {
		if v, err := reopen(t, dev, 9).Get(fmt.Sprintf("k%d", i)); err != nil || len(v) != SectorSize {
			t.Fatalf("k%d damaged by all-live compact: %v", i, err)
		}
	}
}

// TestOpenUnformattedRegion: Format is the only way to lay out a region,
// so Open refuses one without a superblock — a zeroed disk, or a log
// whose first sector is a record — instead of guessing a layout.
func TestOpenUnformattedRegion(t *testing.T) {
	record := newMemDev(16)
	encodeRecord(record.data[:SectorSize], Op{Key: "k", Value: []byte("v")}, 0)
	for name, dev := range map[string]*memDev{"zeroed": newMemDev(16), "record": record} {
		if _, err := Open(dev, 0, 16); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open on an unformatted region = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestSuperblockCorruptionDetected(t *testing.T) {
	dev := newMemDev(16)
	if err := Format(dev, 0, 9); err != nil {
		t.Fatal(err)
	}
	dev.data[5] ^= 0xFF // flip an epoch byte under the crc
	if _, err := Open(dev, 0, 9); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt superblock opened: %v", err)
	}
}

// TestGarbageAccounting cross-checks the incremental live counter
// against a from-scratch recomputation across puts, overwrites,
// deletes and replay.
func TestGarbageAccounting(t *testing.T) {
	dev := newMemDev(128)
	s := formatted(t, dev, 0, 101)
	check := func(tag string, st *Store) {
		want := uint64(0)
		for _, k := range st.Keys() {
			v, _ := st.GetView(k)
			want += uint64(recordSectors(len(k), len(v)))
		}
		if st.live != want {
			t.Fatalf("%s: live = %d, recomputed %d", tag, st.live, want)
		}
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i%3), bytes.Repeat([]byte{byte(i)}, 80*(i%4+1))); err != nil {
			t.Fatal(err)
		}
		check("put", s)
	}
	s.Delete("k1")
	check("delete", s)
	check("replay", reopen(t, dev, 101))
}

// TestGetViewZeroCopy: GetView must alias the index's own backing
// array (that is the point — no per-get allocation), while Get returns
// an independent copy.
func TestGetViewZeroCopy(t *testing.T) {
	s := formatted(t, newMemDev(16), 0, 16)
	if err := s.Put("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	view, err := s.GetView("k")
	if err != nil {
		t.Fatal(err)
	}
	if &view[0] != &s.index["k"][0] {
		t.Fatal("GetView copied")
	}
	cp, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if &cp[0] == &view[0] {
		t.Fatal("Get aliases the index")
	}
	if _, err := s.GetView("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetView on absent key: %v", err)
	}
}

// TestOverwriteReusesValueBuffer: an overwrite of a live key whose new
// value fits the old buffer copies into it instead of allocating.
func TestOverwriteReusesValueBuffer(t *testing.T) {
	if raceBuild {
		t.Skip("-race instrumentation allocates")
	}
	s := formatted(t, newMemDev(1024), 0, 1024)
	a, b := bytes.Repeat([]byte{'a'}, 48), bytes.Repeat([]byte{'b'}, 48)
	if err := s.Put("k", a); err != nil {
		t.Fatal(err)
	}
	buf := s.index["k"]
	next := b
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Put("k", next); err != nil {
			t.Fatal(err)
		}
		next, a, b = a, b, next
	})
	if allocs != 0 {
		t.Fatalf("an equal-length overwrite allocated %v times, want 0", allocs)
	}
	if v := s.index["k"]; &v[0] != &buf[0] {
		t.Fatal("the overwrite moved the key's value to a new buffer")
	}
}

// TestCompactFlipAllocatesNothing: Compact stages its records and its
// superblock flip in the store's scratch, so compacting a warm store
// allocates nothing. The superblock sectors Format and the flips write
// are pinned byte for byte: magic, epoch, active half and crc, then
// zeros to the end of the sector.
func TestCompactFlipAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("-race instrumentation allocates")
	}
	dev := newMemDev(64)
	s := formatted(t, dev, 0, 64)
	super := func(want string) {
		t.Helper()
		if got := hex.EncodeToString(dev.data[:20]); got != want {
			t.Fatalf("superblock %s, want %s", got, want)
		}
		if !bytes.Equal(dev.data[20:SectorSize], make([]byte, SectorSize-20)) {
			t.Fatal("superblock sector is not zero past its crc")
		}
	}
	super("0c5bdef1010000000000000000000000008a70e0") // epoch 1, half 0
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 600)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil { // sizes the scratch and the key list
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a Compact of a warm store allocated %v times, want 0", allocs)
	}
	super("0c5bdef11700000000000000000000001cc25503") // 22 flips later: epoch 23, half 0
}

// TestOverwriteLeavesCopiesIntact pins what the in-place overwrite
// relies on: a Get copy and a ValueCache entry taken before an
// overwrite keep their bytes, a GetView taken before it sees the new
// bytes (it was valid only until that mutation), and an overwrite with
// an empty value leaves the key present.
func TestOverwriteLeavesCopiesIntact(t *testing.T) {
	s := formatted(t, newMemDev(64), 0, 64)
	if err := s.Put("k", []byte("old-value")); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.GetView("k")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewValueCache(4)
	cache.Put("k", cp)
	if err := s.Put("k", []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	if string(cp) != "old-value" {
		t.Errorf("Get copy reads %q after the overwrite, want old-value", cp)
	}
	if v, ok := cache.Get("k"); !ok || string(v) != "old-value" {
		t.Errorf("cache entry reads %q (present %v) after the overwrite, want old-value", v, ok)
	}
	if string(view) != "new-value" {
		t.Errorf("GetView taken before the overwrite reads %q, want new-value", view)
	}
	if err := s.Put("k", nil); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get("k"); err != nil || len(v) != 0 {
		t.Fatalf("after an empty overwrite Get = %q, %v; want an empty value", v, err)
	}
	if s.Len() != 1 {
		t.Fatalf("after an empty overwrite the store holds %d keys, want 1", s.Len())
	}
	if v, err := reopen(t, s.dev, 64).Get("k"); err != nil || len(v) != 0 {
		t.Fatalf("replayed empty overwrite: Get = %q, %v; want an empty value", v, err)
	}
}
