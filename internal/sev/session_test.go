package sev

import (
	"bytes"
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
	if _, err := origin.SendUpdatePages(h, page, slab(1)); err != nil {
		t.Fatal(err)
	}
	c, err := origin.ctx(h)
	if err != nil {
		t.Fatal(err)
	}
	old := c.transport
	if err := origin.SendCancel(h); err != nil {
		t.Fatal(err)
	}
	if c.transport != nil {
		t.Fatal("a cancelled context still holds a transport session")
	}
	if old.tek != nil || old.tik != ([32]byte{}) || old.free != nil {
		t.Fatal("SEND_CANCEL left key material in the dropped session")
	}

	newWrap, err := origin.SendStart(h, targetPub, newNonce)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := origin.SendUpdatePages(h, page, slab(1))
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
	r, err := target.ctx(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if c.transport != nil || r.transport != nil {
		t.Fatal("a finished SEND or RECEIVE left its transport session behind")
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
		if _, err := f.SendUpdatePages(h, pfns, dst); !errors.Is(err, ErrBufferSize) {
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

// TestBulkTransportAllocations guards the per-packet allocations of the
// bulk commands at pool width 1, where a batch runs inline (a wider pool
// adds its worker goroutines). Each bound is the command's fixed cost,
// measured on an empty batch (the fan-out closure, plus the lock-rank
// checker's bookkeeping when it is armed), plus one allocation per packet
// and one for the batch's packet or staging slice. The one allocation
// per packet is cipher.NewCTR's stream state, the known remainder; the
// transport session, the page buffer and the HMAC state are all reused.
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
			if _, err := f.SendUpdatePages(sh, pfns, dst); err != nil {
				t.Fatal(err)
			}
		})
	}
	fixed := send(nil, nil)
	if got, want := send(pfns, dst), fixed+float64(len(pfns)+1); got > want {
		t.Fatalf("32-page SEND_UPDATE into a reused buffer: %v allocations, want at most %v", got, want)
	}

	// Packets for every RECEIVE_UPDATE AllocsPerRun makes (one warm-up
	// call plus runs), in sequence, sealed under the receiver's keys.
	r, err := f.ctx(rh)
	if err != nil {
		t.Fatal(err)
	}
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
	if want := fixed + 2; recv > want {
		t.Fatalf("one-page RECEIVE_UPDATE: %v allocations, want at most %v", recv, want)
	}
}
