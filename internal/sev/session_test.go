package sev

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"fidelius/internal/hw"
)

// TestSendCancelScrubsSession: SEND_CANCEL drops the context's transport
// session with its key material, and the next SEND_START seals under a
// session of its own, so its packets open under the new wrap and fail
// their tag under the cancelled one. SEND_FINISH and RECEIVE_FINISH drop
// their sessions too.
func TestSendCancelScrubsSession(t *testing.T) {
	origin, octl := newFW(t, 32)
	target, _ := newFW(t, 32)
	h, _ := origin.LaunchStart(0)
	octl.Mem.WriteRaw(hw.PFN(3).Addr(), bytes.Repeat([]byte{9}, hw.PageSize))
	page := []hw.PFN{3}
	launchImage(t, origin, h, page)
	if err := origin.LaunchFinish(h); err != nil {
		t.Fatal(err)
	}
	targetPub, _ := target.PublicKey()
	originPub, _ := origin.PublicKey()

	oldNonce, newNonce := []byte("first-attempt!"), []byte("second-attempt")
	oldWrap, err := origin.SendStart(h, targetPub, oldNonce)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := origin.SendUpdatePages(h, page, slab(1), nil); err != nil {
		t.Fatal(err)
	}
	c := origin.ctxs[h]
	old := c.transport
	if err := origin.SendCancel(h); err != nil {
		t.Fatal(err)
	}
	if c.transport != nil {
		t.Fatal("a cancelled context still holds a transport session")
	}
	if old.tek != (hw.CTR{}) || old.tik != nil || old.key != ([32]byte{}) || old.io != nil || old.free != nil {
		t.Fatal("SEND_CANCEL left key material (TEK schedule, TIK's GCM state, kept TEK, I/O transform or tag scratch) in the dropped session")
	}
	// The scrubbed session seals nothing: its zeroed schedule holds no
	// key and panics before a packet exists. It can neither tag nor open
	// either: with its GCM state dropped, no tag can be made or checked.
	if !panics(func() { sealPacket(old, 0, slab(1)) }) {
		t.Fatal("a scrubbed session sealed a packet")
	}
	if !panics(func() { old.tagWith(0, slab(1)) }) {
		t.Fatal("a scrubbed session tagged a packet")
	}
	if !panics(func() { openPacket(old, Packet{Seq: 0, Data: slab(1)}, slab(1)) }) {
		t.Fatal("a scrubbed session opened a packet")
	}

	newWrap, err := origin.SendStart(h, targetPub, newNonce)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := origin.SendUpdatePages(h, page, slab(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := target.ReceiveStart(oldWrap, originPub, oldNonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := target.ReceiveUpdatePages(stale, []hw.PFN{7}, pkts); !errors.Is(err, ErrBadTag) {
		t.Fatalf("packet after a re-started send under the cancelled keys: got %v, want ErrBadTag", err)
	}
	fresh, err := target.ReceiveStart(newWrap, originPub, newNonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := target.ReceiveUpdatePages(fresh, []hw.PFN{7}, pkts); err != nil {
		t.Fatalf("packet under the new keys: %v", err)
	}

	// Finishing either side ends the session with it.
	mvm, err := origin.SendFinish(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := target.ReceiveFinish(fresh, mvm); err != nil {
		t.Fatal(err)
	}
	r := target.ctxs[fresh]
	if c.transport != nil || r.transport != nil {
		t.Fatal("a finished SEND or RECEIVE left its transport session behind")
	}
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestTransportPacketGolden pins one transport packet on the wire: fixed
// TEK and TIK, seq 7, a fixed 4 KiB plaintext. The SHA-256 of the
// ciphertext was taken from the cipher.NewCTR path, so this passes byte
// for byte on the AES-NI kernel and under -race, where that path runs;
// the tag is the AES-256-GMAC of that ciphertext under the TIK with the
// nonce LE64(7) || 0^32, zero-padded to 32 bytes, and both were checked
// against an independent AES-CTR and AES-GCM implementation. Any change
// to the wire format fails it.
func TestTransportPacketGolden(t *testing.T) {
	var tk TransportKeys
	for i := range tk.TEK {
		tk.TEK[i] = byte(i)
		tk.TIK[i] = byte(0x80 + i)
	}
	plain := make([]byte, hw.PageSize)
	for i := range plain {
		plain[i] = byte(i*7 + i>>8)
	}
	s := newSession(tk)
	pkt := sealPacket(s, 7, append([]byte(nil), plain...))
	const (
		wantTag = "4fb2934188075cb78ce34e6c22e42cfb00000000000000000000000000000000"
		wantSum = "f59a0d445bc1bc2a1cebc1e674377026d24bee7518591b124f0c5eeaa62d0872"
	)
	sum := sha256.Sum256(pkt.Data)
	if got := hex.EncodeToString(pkt.Tag[:]); got != wantTag {
		t.Errorf("tag %s, want %s", got, wantTag)
	}
	if got := hex.EncodeToString(sum[:]); got != wantSum {
		t.Errorf("SHA-256 of the ciphertext %s, want %s", got, wantSum)
	}
	got, err := openPacket(s, pkt, make([]byte, len(pkt.Data)))
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("the golden packet does not open to its plaintext (err %v)", err)
	}
}

// TestOpenRefusesForgedTags: a packet whose data, seq or tag was changed
// after sealing, or whose tag was made under another session's TIK or
// belongs to another packet, fails its tag with ErrBadTag, and the
// genuine packets still open.
func TestOpenRefusesForgedTags(t *testing.T) {
	tk := TransportKeys{TEK: [32]byte{1}, TIK: [32]byte{2}}
	s := newSession(tk)
	other := newSession(TransportKeys{TEK: tk.TEK, TIK: [32]byte{3}})
	a := sealPacket(s, 5, bytes.Repeat([]byte{0xA5}, hw.PageSize))
	b := sealPacket(s, 6, bytes.Repeat([]byte{0x5A}, hw.PageSize))
	for _, tc := range []struct {
		name   string
		forge  func(p *Packet)
		packet Packet
	}{
		{"one flipped data bit", func(p *Packet) { p.Data[100] ^= 0x10 }, a},
		{"seq+1", func(p *Packet) { p.Seq++ }, a},
		{"nonzero byte in Tag[16:]", func(p *Packet) { p.Tag[31] = 1 }, a},
		{"tag under another session's TIK", func(p *Packet) { p.Tag = other.tagWith(p.Seq, p.Data) }, a},
		{"tags swapped, first packet", func(p *Packet) { p.Tag = b.Tag }, a},
		{"tags swapped, second packet", func(p *Packet) { p.Tag = a.Tag }, b},
	} {
		bad := tc.packet
		bad.Data = append([]byte(nil), tc.packet.Data...)
		tc.forge(&bad)
		if _, err := openPacket(s, bad, slab(1)); !errors.Is(err, ErrBadTag) {
			t.Errorf("%s: got %v, want ErrBadTag", tc.name, err)
		}
	}
	for _, pkt := range []Packet{a, b} {
		if _, err := openPacket(s, pkt, slab(1)); err != nil {
			t.Errorf("genuine packet seq %d: %v", pkt.Seq, err)
		}
	}
}

// BenchmarkPacketSealOpen measures one 4 KiB transport packet sealed
// (CTR keystream and tag) and opened again (tag check and keystream).
func BenchmarkPacketSealOpen(b *testing.B) {
	s := newSession(TransportKeys{TEK: [32]byte{1}, TIK: [32]byte{2}})
	page, plain := slab(1), slab(1)
	b.ReportAllocs()
	b.SetBytes(hw.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := sealPacket(s, uint64(i), page)
		if _, err := openPacket(s, pkt, plain); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSessionDerivesIOTransformOnFirstUse: a session builds its I/O
// transform on the first ioSeal, not when its keys are set; it is the
// transform an eager build gives, and the kept TEK bytes are zeroed once
// it exists. A session scrubbed before any I/O never derives one from
// the zeroed key.
func TestSessionDerivesIOTransformOnFirstUse(t *testing.T) {
	tk := TransportKeys{TEK: [32]byte{1, 2, 3}, TIK: [32]byte{4}}
	s := newSession(tk)
	if s.io != nil {
		t.Fatal("a fresh session built its I/O transform")
	}
	plain := bytes.Repeat([]byte{0x5A}, 512)
	got := append([]byte{}, plain...)
	want := append([]byte{}, plain...)
	s.ioSeal(9, got)
	hw.NewXEX(tk.TEK, "sev-io-data:", "sev-io-tweak:").EncryptLine(9*ioSpan, want)
	if !bytes.Equal(got, want) {
		t.Fatal("the derived I/O transform seals differently from an eager one")
	}
	if s.key != ([32]byte{}) {
		t.Fatal("the session kept the TEK bytes after deriving its transform")
	}
	s.ioOpen(9, got)
	if !bytes.Equal(got, plain) {
		t.Fatal("ioOpen does not invert ioSeal")
	}

	idle := newSession(tk)
	idle.scrub()
	if idle.key != ([32]byte{}) || idle.ioXEX() != nil {
		t.Fatal("a scrubbed session kept its TEK or derived an I/O transform")
	}
}

// TestSendUpdateRefusesMisSizedBuffer: SEND_UPDATE seals only into a
// buffer of exactly one page per pfn; any other size is refused before
// a byte is written or the sequence and measurement move.
func TestSendUpdateRefusesMisSizedBuffer(t *testing.T) {
	f, ctl := newFW(t, 16)
	c, _, h, _ := twinContexts(t, f, StateSending)
	pfns := []hw.PFN{2, 3}
	fillPages(t, ctl, pfns, 9)
	for _, n := range []int{0, hw.PageSize, 3 * hw.PageSize, 2*hw.PageSize - 1} {
		dst := bytes.Repeat([]byte{0xEE}, n)
		if _, err := f.SendUpdatePages(h, pfns, dst, nil); !errors.Is(err, ErrBufferSize) {
			t.Fatalf("%d-byte buffer for 2 pages: got %v, want ErrBufferSize", n, err)
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, n)) {
			t.Fatalf("%d-byte buffer: a refused send wrote into it", n)
		}
		if c.seq != 0 || c.measure != (Measurement{}) {
			t.Fatalf("%d-byte buffer: a refused send moved the context (seq %d)", n, c.seq)
		}
	}
}

// TestPacketCryptoAllocatesNothing: on the AES-NI kernel, sealing and
// opening one page allocates nothing. The TEK's round keys are expanded
// once per session and handed to the kernel by reference, the TIK's GCM
// state is built with the session, and the tag's nonce and output
// buffers come from the session's free list.
func TestPacketCryptoAllocatesNothing(t *testing.T) {
	if !hw.HaveKernels() {
		t.Skip("no CTR kernel in this build: each packet builds a cipher.NewCTR stream")
	}
	s := newSession(TransportKeys{TEK: [32]byte{1}, TIK: [32]byte{2}})
	page := slab(1)
	if n := testing.AllocsPerRun(100, func() { sealPacket(s, 3, page) }); n != 0 {
		t.Errorf("sealPacket of one page: %v allocations, want 0", n)
	}
	pkt := sealPacket(s, 4, slab(1))
	plain := slab(1)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := openPacket(s, pkt, plain); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("openPacket of one page: %v allocations, want 0", n)
	}
}

// TestBulkTransportAllocations guards the per-packet allocations of the
// bulk commands at pool width 1, where a batch runs inline (a wider pool
// adds its worker goroutines). Each bound is the command's fixed cost,
// measured on an empty batch (the fan-out closure, plus the lock-rank
// checker's bookkeeping when it is armed), plus one allocation for a
// SEND_UPDATE batch's packet slice. The transport session, the page
// buffer and the tag scratch are all reused, and on the AES-NI kernel a
// packet allocates nothing; without it (another architecture or a -race
// build) each packet adds one cipher.NewCTR stream.
func TestBulkTransportAllocations(t *testing.T) {
	const runs = 20
	f, ctl := newFW(t, 64)
	f.Pool().SetWidth(1)
	_, _, sh, rh := twinContexts(t, f, StateSending)
	pfns := make([]hw.PFN, 32)
	for i := range pfns {
		pfns[i] = hw.PFN(i + 8)
	}
	fillPages(t, ctl, pfns, 3)

	dst := slab(len(pfns))
	send := func(pfns []hw.PFN, dst []byte) float64 {
		return testing.AllocsPerRun(runs, func() {
			if _, err := f.SendUpdatePages(sh, pfns, dst, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	perPacket := 0.0
	if !hw.HaveKernels() {
		perPacket = 1
	}
	fixed := send(nil, nil)
	if got, want := send(pfns, dst), fixed+perPacket*float64(len(pfns))+1; got > want {
		t.Fatalf("32-page SEND_UPDATE into a reused buffer: %v allocations, want at most %v", got, want)
	}

	// Packets for every RECEIVE_UPDATE AllocsPerRun makes (one warm-up
	// call plus runs), in sequence, sealed under the receiver's keys.
	r := f.ctxs[rh]
	r.state = StateReceiving
	pkts := make([]Packet, runs+1)
	for i := range pkts {
		pkts[i] = sealPacket(r.transport, uint64(i), slab(1))
	}
	fixed = testing.AllocsPerRun(runs, func() {
		if err := f.ReceiveUpdatePages(rh, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	next := 0
	recv := testing.AllocsPerRun(runs, func() {
		if err := f.ReceiveUpdatePages(rh, pfns[:1], pkts[next:next+1]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if want := fixed + perPacket; recv > want {
		t.Fatalf("one-page RECEIVE_UPDATE: %v allocations, want at most %v", recv, want)
	}
}
