package kv

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// memDev is an in-memory BlockDev for unit tests; the integration path
// through the real protected front-ends is exercised in
// examples/kvstore and the root integration tests.
type memDev struct {
	data []byte
}

func newMemDev(sectors int) *memDev { return &memDev{data: make([]byte, sectors*SectorSize)} }

func (m *memDev) WriteSectors(lba uint64, data []byte) error {
	if int(lba)*SectorSize+len(data) > len(m.data) {
		return errors.New("memdev: out of range")
	}
	copy(m.data[lba*SectorSize:], data)
	return nil
}

func (m *memDev) ReadSectors(lba uint64, buf []byte) error {
	if int(lba)*SectorSize+len(buf) > len(m.data) {
		return errors.New("memdev: out of range")
	}
	copy(buf, m.data[lba*SectorSize:])
	return nil
}

// formatted lays out a fresh store region of sectors sectors at base and
// opens it.
func formatted(t testing.TB, dev BlockDev, base uint64, sectors int) *Store {
	t.Helper()
	if err := Format(dev, base, sectors); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dev, base, sectors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := formatted(t, newMemDev(64), 0, 64)
	if err := s.Put("alice", []byte("balance=100")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("bob", []byte("balance=250")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("alice")
	if err != nil || string(v) != "balance=100" {
		t.Fatalf("get alice: %q %v", v, err)
	}
	// Overwrite.
	if err := s.Put("alice", []byte("balance=50")); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get("alice")
	if string(v) != "balance=50" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if err := s.Delete("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("bob"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("len %d", s.Len())
	}
}

func TestReplayRecoversState(t *testing.T) {
	dev := newMemDev(128)
	s := formatted(t, dev, 4, 100)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete("k3")
	s.Put("k5", []byte("updated"))

	// "Reboot": reopen over the same device.
	s2, err := Open(dev, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 9 {
		t.Fatalf("recovered %d keys, want 9", s2.Len())
	}
	if _, err := s2.Get("k3"); !errors.Is(err, ErrNotFound) {
		t.Fatal("tombstone not replayed")
	}
	v, err := s2.Get("k5")
	if err != nil || string(v) != "updated" {
		t.Fatalf("k5 = %q, %v", v, err)
	}
	if s2.UsedSectors() != s.UsedSectors() {
		t.Fatal("log length mismatch after replay")
	}
}

func TestStoreFull(t *testing.T) {
	s := formatted(t, newMemDev(16), 0, 9) // halves of 4
	big := bytes.Repeat([]byte{1}, 3*SectorSize)
	if err := s.Put("a", big); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", big); err == nil {
		t.Fatal("overfull store accepted a record")
	}
}

// TestCorruptLogDetected pins the replay rule for a damaged record: a
// smashed record magic ends the log, so the store replays as the prefix
// before it — the rule that lets a recycled half carry debris.
func TestCorruptLogDetected(t *testing.T) {
	dev := newMemDev(16)
	s := formatted(t, dev, 0, 16)
	for _, k := range []string{"x", "y", "z"} {
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	dev.data[2*SectorSize] ^= 0xFF // smash the magic of y's record (lba 2)
	r, err := Open(dev, 0, 16)
	if err != nil {
		t.Fatalf("smashed record failed the open: %v", err)
	}
	if r.Len() != 1 || r.UsedSectors() != 1 {
		t.Fatalf("replayed %d keys over %d sectors, want the 1-record prefix %v", r.Len(), r.UsedSectors(), r.Keys())
	}
	if _, err := r.Get("x"); err != nil {
		t.Fatalf("prefix record lost: %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := formatted(t, newMemDev(8), 0, 8)
	if err := s.Put("", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

// TestDeleteTombstoneReplay is the regression test for the old conflated
// semantics, where Delete was Put(key, nil): an empty value used to act
// as a deletion, and a deletion replayed as an empty value. Tombstones
// are now a distinct record type.
func TestDeleteTombstoneReplay(t *testing.T) {
	dev := newMemDev(128)
	s := formatted(t, dev, 0, 128)
	if err := s.Put("gone", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}

	check := func(s *Store, phase string) {
		t.Helper()
		if _, err := s.Get("gone"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: deleted key resurrected: %v", phase, err)
		}
		v, err := s.Get("empty")
		if err != nil {
			t.Fatalf("%s: empty value lost: %v", phase, err)
		}
		if len(v) != 0 {
			t.Fatalf("%s: empty value = %q", phase, v)
		}
		if s.Len() != 1 {
			t.Fatalf("%s: len %d, want 1 (keys %v)", phase, s.Len(), s.Keys())
		}
	}
	check(s, "live")

	s2, err := Open(dev, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	check(s2, "replayed")
	if s2.UsedSectors() != s.UsedSectors() {
		t.Fatal("log length mismatch after replay")
	}

	// Deleting an absent key is a logged no-op that replays cleanly.
	if err := s2.Delete("never-existed"); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dev, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	check(s3, "replayed-after-noop-delete")
}

// countingDev counts sector traffic and request calls through a memDev.
type countingDev struct {
	*memDev
	sectorsRead uint64
	writeCalls  uint64
}

func (d *countingDev) ReadSectors(lba uint64, buf []byte) error {
	d.sectorsRead += uint64(len(buf) / SectorSize)
	return d.memDev.ReadSectors(lba, buf)
}

func (d *countingDev) WriteSectors(lba uint64, data []byte) error {
	d.writeCalls++
	return d.memDev.WriteSectors(lba, data)
}

// tornDev drops every sector after the first `budget` written through it,
// simulating a crash at an arbitrary sector boundary mid-commit.
type tornDev struct {
	*memDev
	budget int
}

func (d *tornDev) WriteSectors(lba uint64, data []byte) error {
	n := len(data) / SectorSize
	if d.budget <= 0 {
		return nil
	}
	if n <= d.budget {
		d.budget -= n
		return d.memDev.WriteSectors(lba, data)
	}
	k := d.budget
	d.budget = 0
	return d.memDev.WriteSectors(lba, data[:k*SectorSize])
}

// TestOversizedAppendRejected is the regression test for the
// append/replay bounds mismatch: an oversized Put used to succeed and
// then render the store unopenable (ErrCorrupt on the next Open).
func TestOversizedAppendRejected(t *testing.T) {
	dev := newMemDev(64)
	s := formatted(t, dev, 0, 64)
	if err := s.Put("anchor", []byte("v")); err != nil {
		t.Fatal(err)
	}
	used := s.UsedSectors()

	bigKey := string(bytes.Repeat([]byte{'k'}, MaxKeyLen+1))
	if err := s.Put(bigKey, []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized key accepted: %v", err)
	}
	if err := s.Put("k", make([]byte, MaxValueLen+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized value accepted: %v", err)
	}
	if err := s.Delete(bigKey); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized tombstone key accepted: %v", err)
	}
	if err := s.Apply([]Op{{Key: "ok", Value: []byte("v")}, {Key: bigKey, Value: nil}}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized op in batch accepted: %v", err)
	}
	if s.UsedSectors() != used {
		t.Fatalf("rejected appends moved the log head: %d -> %d", used, s.UsedSectors())
	}
	if _, err := s.Get("ok"); !errors.Is(err, ErrNotFound) {
		t.Fatal("rejected batch leaked into the index")
	}
	// A key exactly at the limit is fine, and the store stays openable.
	atLimit := string(bytes.Repeat([]byte{'k'}, MaxKeyLen))
	if err := s.Put(atLimit, []byte("v")); err != nil {
		t.Fatalf("at-limit key rejected: %v", err)
	}
	if _, err := Open(dev, 0, 64); err != nil {
		t.Fatalf("store unopenable after bounds checks: %v", err)
	}
}

// TestReplayReadsEachSectorOnce pins Open's sector traffic to the
// superblock plus exactly one pass over the log (every record sector
// once, plus the terminator). The old replay read each record's head
// sector twice — once to parse the header and again inside the
// full-record read — so this assertion is the regression fence for that
// double read.
func TestReplayReadsEachSectorOnce(t *testing.T) {
	dev := newMemDev(256)
	s := formatted(t, dev, 0, 256)
	// Mixed record sizes: 1-, 2- and 4-sector records plus a tombstone.
	if err := s.Put("small", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("two", bytes.Repeat([]byte{2}, 600)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("four", bytes.Repeat([]byte{4}, 1600)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("small"); err != nil {
		t.Fatal(err)
	}
	used := s.UsedSectors()

	cd := &countingDev{memDev: dev}
	s2, err := Open(cd, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if s2.UsedSectors() != used {
		t.Fatalf("replay used %d sectors, want %d", s2.UsedSectors(), used)
	}
	if want := 1 + used + 1; cd.sectorsRead != want {
		t.Fatalf("replay read %d sectors for a %d-sector log, want exactly %d",
			cd.sectorsRead, used, want)
	}
}

// TestTornGroupCommitReplay cuts the device at every sector boundary of
// a group commit — after the terminator write, mid-span, mid-record —
// and asserts Open recovers exactly the longest valid prefix of the
// batch: no phantom keys, no half values, no corruption errors.
func TestTornGroupCommitReplay(t *testing.T) {
	const base, region = 4, 256
	seeded := newMemDev(region + int(base))
	s := formatted(t, seeded, base, region)
	model := map[string]string{}
	for i := 0; i < 5; i++ {
		k, v := fmt.Sprintf("seed%d", i), string(bytes.Repeat([]byte{byte('a' + i)}, 40*(i+1)))
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if err := s.Delete("seed1"); err != nil {
		t.Fatal(err)
	}
	delete(model, "seed1")
	seedUsed := s.UsedSectors()

	// Batch: 1-, 3-, 1- and 2-sector records; sectorsByOp mirrors
	// recordSectors so the test states its own layout expectations.
	batch := []Op{
		{Key: "b0", Value: bytes.Repeat([]byte{0xB0}, 100)},
		{Key: "b1", Value: bytes.Repeat([]byte{0xB1}, 1200)},
		{Key: "seed2", Delete: true},
		{Key: "seed0", Value: bytes.Repeat([]byte{0xB3}, 700)},
	}
	sectorsByOp := []int{1, 3, 1, 2}
	total := 0
	for _, n := range sectorsByOp {
		total += n
	}

	for cut := 0; cut <= total+1; cut++ {
		clone := &memDev{data: append([]byte{}, seeded.data...)}
		torn := &tornDev{memDev: clone, budget: 1 << 30}
		sc, err := Open(torn, base, region)
		if err != nil {
			t.Fatalf("cut %d: reopen before apply: %v", cut, err)
		}
		torn.budget = cut // terminator is sector 1, then the record span
		if err := sc.Apply(batch); err != nil {
			t.Fatalf("cut %d: apply: %v", cut, err)
		}

		re, err := Open(clone, base, region)
		if err != nil {
			t.Fatalf("cut %d: replay after torn commit: %v", cut, err)
		}
		// How many whole records landed? The terminator consumes the
		// first budgeted sector; records follow in op order.
		want := map[string]string{}
		for k, v := range model {
			want[k] = v
		}
		applied, sectors := 0, 0
		if cut >= 1 {
			for i, n := range sectorsByOp {
				if sectors+n > cut-1 {
					break
				}
				sectors += n
				applied = i + 1
			}
			for _, op := range batch[:applied] {
				if op.Delete {
					delete(want, op.Key)
				} else {
					want[op.Key] = string(op.Value)
				}
			}
		}
		if re.Len() != len(want) {
			t.Fatalf("cut %d: recovered %d keys, want %d (prefix %d ops): %v",
				cut, re.Len(), len(want), applied, re.Keys())
		}
		for k, v := range want {
			got, err := re.Get(k)
			if err != nil {
				t.Fatalf("cut %d: key %q lost: %v", cut, k, err)
			}
			if string(got) != v {
				t.Fatalf("cut %d: key %q = %d bytes, want %d (half record surfaced)",
					cut, k, len(got), len(v))
			}
		}
		if got, want := re.UsedSectors(), seedUsed+uint64(sectors); got != want {
			t.Fatalf("cut %d: log head at %d sectors, want %d", cut, got, want)
		}
	}
}

// TestApplyByteIdenticalToSerialPuts proves group commit changes only
// the I/O pattern, not the bytes: the device image after one Apply is
// identical to the image after the equivalent serial Put/Delete
// sequence, with or without the write coalescer in the path.
func TestApplyByteIdenticalToSerialPuts(t *testing.T) {
	ops := []Op{
		{Key: "alpha", Value: []byte("1")},
		{Key: "beta", Value: bytes.Repeat([]byte{7}, 900)},
		{Key: "alpha", Value: []byte("2")},
		{Key: "gamma", Value: nil},
		{Key: "beta", Delete: true},
		{Key: "delta", Value: bytes.Repeat([]byte{9}, 1600)},
	}

	serial := newMemDev(256)
	sa := formatted(t, serial, 0, 256)
	var err error
	for _, op := range ops {
		if op.Delete {
			err = sa.Delete(op.Key)
		} else {
			err = sa.Put(op.Key, op.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	batched := newMemDev(256)
	sb := formatted(t, batched, 0, 256)
	if err := sb.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.data, batched.data) {
		t.Fatal("Apply image differs from serial Put image")
	}
	if sa.UsedSectors() != sb.UsedSectors() || sa.Len() != sb.Len() {
		t.Fatalf("shape mismatch: used %d/%d live %d/%d",
			sa.UsedSectors(), sb.UsedSectors(), sa.Len(), sb.Len())
	}

	coalesced := newMemDev(256)
	sc := formatted(t, NewWriteCoalescer(coalesced, 0), 0, 256)
	if err := sc.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.data, coalesced.data) {
		t.Fatal("coalesced Apply image differs from serial Put image")
	}

	// And both replay to the same state.
	ra, _ := Open(serial, 0, 256)
	rb, _ := Open(batched, 0, 256)
	if ra.Len() != rb.Len() {
		t.Fatalf("replayed live keys differ: %d vs %d", ra.Len(), rb.Len())
	}
	for _, k := range ra.Keys() {
		va, _ := ra.Get(k)
		vb, err := rb.Get(k)
		if err != nil || !bytes.Equal(va, vb) {
			t.Fatalf("key %q diverged after replay: %v", k, err)
		}
	}
}

// TestApplyOrderingWithinBatch pins slice-order semantics: a later op on
// the same key wins, both live and across replay.
func TestApplyOrderingWithinBatch(t *testing.T) {
	dev := newMemDev(128)
	s := formatted(t, dev, 0, 128)
	if err := s.Put("a", []byte("old")); err != nil {
		t.Fatal(err)
	}
	err := s.Apply([]Op{
		{Key: "a", Value: []byte("1")},
		{Key: "a", Delete: true},
		{Key: "a", Value: []byte("2")},
		{Key: "b", Delete: true}, // tombstone for an absent key
		{Key: "c", Value: nil},   // empty value stays live
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, phase string) {
		t.Helper()
		if v, err := s.Get("a"); err != nil || string(v) != "2" {
			t.Fatalf("%s: a = %q, %v", phase, v, err)
		}
		if _, err := s.Get("b"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: b: %v", phase, err)
		}
		if v, err := s.Get("c"); err != nil || len(v) != 0 {
			t.Fatalf("%s: c = %q, %v", phase, v, err)
		}
		if s.Len() != 2 {
			t.Fatalf("%s: len %d, want 2", phase, s.Len())
		}
	}
	check(s, "live")
	s2, err := Open(dev, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	check(s2, "replayed")
}

func TestApplyEmptyBatch(t *testing.T) {
	dev := newMemDev(16)
	s := formatted(t, dev, 0, 16)
	before := append([]byte{}, dev.data...)
	if err := s.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, dev.data) {
		t.Fatal("empty Apply touched the device")
	}
}

func TestPropertyPutGetReplay(t *testing.T) {
	f := func(pairs map[string]string) bool {
		dev := newMemDev(2048)
		s := formatted(t, dev, 0, 2048)
		want := map[string]string{}
		for k, v := range pairs {
			if k == "" || len(k) > 64 || len(v) > 256 {
				continue
			}
			if err := s.Put(k, []byte(v)); err != nil {
				return false
			}
			want[k] = v
		}
		s2, err := Open(dev, 0, 2048)
		if err != nil {
			return false
		}
		if s2.Len() != len(want) {
			return false
		}
		for k, v := range want {
			got, err := s2.Get(k)
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestImageBytesPinned pins the device image of a fixed, seeded
// Apply -> Compact -> Apply sequence. Record sizes rise and fall across
// batches and values span several sectors, so a record buffer reused
// without zeroed padding, or a terminator sector that is not all zeros,
// changes the hash.
func TestImageBytesPinned(t *testing.T) {
	const want = "8263798d77b04cf0a0b55202a75a0484e92bdb765c61e4b2cba666892ddbca3b"
	rng := rand.New(rand.NewSource(18))
	dev := newMemDev(512)
	s := formatted(t, dev, 0, 512)
	batch := func(n int) {
		t.Helper()
		ops := make([]Op, n)
		for i := range ops {
			ops[i].Key = fmt.Sprintf("key-%d", rng.Intn(12))
			if rng.Intn(5) == 0 {
				ops[i].Delete = true
				continue
			}
			ops[i].Value = bytes.Repeat([]byte{byte(rng.Intn(255) + 1)}, rng.Intn(1500))
		}
		if err := s.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		batch(1 + i%4)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		batch(1 + i%3)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(dev.data)); got != want {
		t.Fatalf("image sha256 %s, want %s", got, want)
	}
}

// Keys returns the live keys (order unspecified).
func (s *Store) Keys() []string {
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	return out
}

// Delete writes a tombstone record and drops the key from the index.
// Deleting an absent key still logs a tombstone (idempotent on replay).
func (s *Store) Delete(key string) error {
	return s.Apply([]Op{{Key: key, Delete: true}})
}
