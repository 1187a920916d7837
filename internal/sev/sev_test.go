package sev

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"fidelius/internal/hw"
)

// slab is a SEND_UPDATE buffer for n pages.
func slab(n int) []byte { return make([]byte, n*hw.PageSize) }

func newFW(t *testing.T, pages int) (*Firmware, *hw.Controller) {
	t.Helper()
	ctl := hw.NewController(hw.NewMemory(pages), 64)
	fw := NewFirmware(ctl)
	if err := fw.Init(); err != nil {
		t.Fatal(err)
	}
	return fw, ctl
}

// launchImage stands in for a guest that wrote its own pages: it encrypts
// each page in DRAM in place under the context's Kvek.
func launchImage(t *testing.T, fw *Firmware, h Handle, pfns []hw.PFN) {
	t.Helper()
	c, err := fw.ctx(h)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, hw.PageSize)
	for _, pfn := range pfns {
		if err := fw.ctl.Mem.ReadRaw(pfn.Addr(), page); err != nil {
			t.Fatal(err)
		}
		c.cipher.EncryptPage(pfn.Addr(), page)
		if err := fw.ctl.Mem.WriteRaw(pfn.Addr(), page); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInitRequired(t *testing.T) {
	ctl := hw.NewController(hw.NewMemory(4), 0)
	fw := NewFirmware(ctl)
	if _, err := fw.LaunchStart(0); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("want ErrNotInitialized, got %v", err)
	}
	if _, err := fw.PublicKey(); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("want ErrNotInitialized, got %v", err)
	}
	if err := fw.Init(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Init(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestLaunchLifecycle(t *testing.T) {
	fw, ctl := newFW(t, 16)
	h, err := fw.LaunchStart(0x1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.LaunchFinish(h); err != nil {
		t.Fatal(err)
	}
	// Activate installs the key: the guest's writes land as ciphertext in
	// DRAM and read back as plaintext.
	if err := fw.Activate(h, 3); err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte("kernel page bits"), hw.PageSize/16)
	acc := hw.Access{PA: hw.PFN(2).Addr(), Encrypted: true, ASID: 3}
	if err := ctl.Write(acc, plain); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, hw.PageSize)
	ctl.Mem.ReadRaw(hw.PFN(2).Addr(), raw)
	if bytes.Equal(raw, plain) {
		t.Fatal("an activated guest left plaintext in DRAM")
	}
	got := make([]byte, hw.PageSize)
	if err := ctl.Read(acc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("activated guest cannot decrypt its own pages")
	}
	// State machine: a second finish is illegal.
	if err := fw.LaunchFinish(h); !errors.Is(err, ErrBadState) {
		t.Fatalf("want ErrBadState, got %v", err)
	}
}

func TestActivateBindings(t *testing.T) {
	fw, _ := newFW(t, 8)
	h1, _ := fw.LaunchStart(0)
	h2, _ := fw.LaunchStart(0)
	if err := fw.Activate(h1, 1); err != nil {
		t.Fatal(err)
	}
	if err := fw.Activate(h2, 1); !errors.Is(err, ErrASIDInUse) {
		t.Fatalf("want ErrASIDInUse, got %v", err)
	}
	if err := fw.Activate(h1, 2); err == nil {
		t.Fatal("re-activating a handle under a different ASID must fail")
	}
	if err := fw.Activate(h1, 1); err != nil { // idempotent re-activate
		t.Fatal(err)
	}
	// The key-sharing attack path: deactivate the victim, then bind its
	// handle to the attacker's ASID. The firmware permits this — it
	// cannot know better; Fidelius prevents it by owning the metadata.
	if err := fw.Deactivate(h1); err != nil {
		t.Fatal(err)
	}
	if err := fw.Activate(h1, 9); err != nil {
		t.Fatalf("rebinding after deactivate should be permitted by firmware: %v", err)
	}
	if err := fw.Decommission(h1); !errors.Is(err, ErrActive) {
		t.Fatalf("decommission while active: want ErrActive, got %v", err)
	}
	fw.Deactivate(h1)
	if err := fw.Decommission(h1); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ctx(h1); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("context survived decommission: %v", err)
	}
	if err := fw.Activate(h2, 0); err == nil {
		t.Fatal("asid 0 must be rejected")
	}
}

func TestOwnerImageReceiveBoot(t *testing.T) {
	// Full VM-preparing + bootup protocol from Sections 4.3.2-4.3.3.
	fw, ctl := newFW(t, 64)
	owner, err := NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	platformPub, _ := fw.PublicKey()
	kernel := bytes.Repeat([]byte("FIDELIUS-KERNEL!"), 600) // ~2.3 pages
	img, kwrap, err := owner.PrepareImage(platformPub, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if img.NumPages() != 3 {
		t.Fatalf("image pages = %d, want 3", img.NumPages())
	}

	h, err := fw.ReceiveStart(kwrap, owner.PublicKey(), owner.Nonce())
	if err != nil {
		t.Fatal(err)
	}
	base := hw.PFN(10)
	pfns := []hw.PFN{base, base + 1, base + 2}
	if err := fw.ReceiveUpdatePages(h, pfns, img.Pages); err != nil {
		t.Fatal(err)
	}
	if err := fw.ReceiveFinish(h, img.Measurement); err != nil {
		t.Fatal(err)
	}
	if err := fw.Activate(h, 4); err != nil {
		t.Fatal(err)
	}
	// The guest sees its kernel in plaintext; DRAM holds ciphertext.
	got := make([]byte, len(kernel))
	if err := ctl.Read(hw.Access{PA: base.Addr(), Encrypted: true, ASID: 4}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, kernel) {
		t.Fatal("booted kernel mismatch")
	}
	raw := make([]byte, len(kernel))
	ctl.Mem.ReadRaw(base.Addr(), raw)
	if bytes.Contains(raw, []byte("FIDELIUS-KERNEL!")) {
		t.Fatal("kernel visible in DRAM")
	}
}

// TestReceiveRefusesPartialPage drives RECEIVE_UPDATE with packets that
// do not carry a whole page: a forged one fails its tag check, a correctly
// sealed one fails the size check, and neither reaches DRAM.
func TestReceiveRefusesPartialPage(t *testing.T) {
	fw, ctl := newFW(t, 64)
	owner, _ := NewOwner()
	platformPub, _ := fw.PublicKey()
	_, kwrap, err := owner.PrepareImage(platformPub, bytes.Repeat([]byte{7}, hw.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	h, err := fw.ReceiveStart(kwrap, owner.PublicKey(), owner.Nonce())
	if err != nil {
		t.Fatal(err)
	}
	c, err := fw.ctx(h)
	if err != nil {
		t.Fatal(err)
	}
	short := sealPacket(c.transport, 0, bytes.Repeat([]byte{9}, 100))
	forged := short
	forged.Tag[0] ^= 1
	if err := fw.ReceiveUpdatePages(h, []hw.PFN{5}, []Packet{forged}); !errors.Is(err, ErrBadTag) {
		t.Fatalf("forged short packet: got %v, want ErrBadTag", err)
	}
	if err := fw.ReceiveUpdatePages(h, []hw.PFN{5}, []Packet{short}); err == nil || errors.Is(err, ErrBadTag) {
		t.Fatalf("sealed short packet: got %v, want a size error", err)
	}
	raw := make([]byte, hw.PageSize)
	if err := ctl.Mem.ReadRaw(hw.PFN(5).Addr(), raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, make([]byte, hw.PageSize)) {
		t.Fatal("a refused packet reached DRAM")
	}
}

func TestReceiveDetectsTamper(t *testing.T) {
	fw, _ := newFW(t, 64)
	owner, _ := NewOwner()
	platformPub, _ := fw.PublicKey()
	kernel := bytes.Repeat([]byte{7}, hw.PageSize)
	img, kwrap, err := owner.PrepareImage(platformPub, kernel)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fw.ReceiveStart(kwrap, owner.PublicKey(), owner.Nonce())
	if err != nil {
		t.Fatal(err)
	}
	// Hypervisor tampers the ciphertext while loading it.
	bad := img.Pages[0]
	bad.Data = append([]byte{}, bad.Data...)
	bad.Data[100] ^= 0xFF
	if err := fw.ReceiveUpdatePages(h, []hw.PFN{5}, []Packet{bad}); !errors.Is(err, ErrBadTag) {
		t.Fatalf("want ErrBadTag, got %v", err)
	}
	// The migration receiver nacks a bad frame and the sender re-sends the
	// same packet, so the refusal must leave the context as it was: the
	// genuine packet is then accepted on the same handle.
	c, err := fw.ctx(h)
	if err != nil {
		t.Fatal(err)
	}
	if c.seq != 0 || c.measure != (Measurement{}) {
		t.Fatalf("refused packet moved the context: seq %d, measurement %x", c.seq, c.measure)
	}
	if err := fw.ReceiveUpdatePages(h, []hw.PFN{5}, img.Pages[:1]); err != nil {
		t.Fatalf("genuine packet after a refused one: %v", err)
	}
	// Replaying an already-consumed packet is rejected by the sequence
	// check before it can touch the measurement chain.
	if err := fw.ReceiveUpdatePages(h, []hw.PFN{6}, img.Pages[:1]); !errors.Is(err, ErrBadSequence) {
		t.Fatalf("want ErrBadSequence on replay, got %v", err)
	}
	// A forged final measurement still fails RECEIVE_FINISH; the genuine
	// one passes, so neither refusal perturbed the chain.
	badMvm := img.Measurement
	badMvm[0] ^= 0xFF
	if err := fw.ReceiveFinish(h, badMvm); !errors.Is(err, ErrBadMeasurement) {
		t.Fatalf("want ErrBadMeasurement, got %v", err)
	}
	if err := fw.ReceiveFinish(h, img.Measurement); err != nil {
		t.Fatalf("genuine measurement after a retried packet: %v", err)
	}
}

func TestWrongOwnerKeyCannotUnwrap(t *testing.T) {
	fw, _ := newFW(t, 8)
	owner, _ := NewOwner()
	mallory, _ := NewOwner()
	platformPub, _ := fw.PublicKey()
	_, kwrap, err := owner.PrepareImage(platformPub, make([]byte, hw.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	// A hypervisor presenting the wrong origin identity fails to unwrap.
	if _, err := fw.ReceiveStart(kwrap, mallory.PublicKey(), owner.Nonce()); !errors.Is(err, ErrBadWrap) {
		t.Fatalf("want ErrBadWrap, got %v", err)
	}
	// Wrong nonce also fails.
	if _, err := fw.ReceiveStart(kwrap, owner.PublicKey(), []byte("bad")); !errors.Is(err, ErrBadWrap) {
		t.Fatalf("want ErrBadWrap, got %v", err)
	}
}

func TestMigrationSendReceive(t *testing.T) {
	// Origin and target are two firmwares over two machines.
	origin, octl := newFW(t, 32)
	target, tctl := newFW(t, 32)

	// Launch a multi-page guest on the origin with known content.
	h, _ := origin.LaunchStart(0)
	srcPFNs := []hw.PFN{3, 4, 5}
	secrets := make([][]byte, len(srcPFNs))
	for i, pfn := range srcPFNs {
		secrets[i] = bytes.Repeat([]byte(fmt.Sprintf("migrate me %04d!", i)), hw.PageSize/16)
		octl.Mem.WriteRaw(pfn.Addr(), secrets[i])
	}
	launchImage(t, origin, h, srcPFNs)
	if err := origin.LaunchFinish(h); err != nil {
		t.Fatal(err)
	}

	// SEND on origin, wrapped for the target platform.
	targetPub, _ := target.PublicKey()
	nonce := []byte("migration-nonce")
	kwrap, err := origin.SendStart(h, targetPub, nonce)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := origin.SendUpdatePages(h, srcPFNs, slab(len(srcPFNs)))
	if err != nil {
		t.Fatal(err)
	}
	mvm, err := origin.SendFinish(h)
	if err != nil {
		t.Fatal(err)
	}

	// RECEIVE on target.
	originPub, _ := origin.PublicKey()
	th, err := target.ReceiveStart(kwrap, originPub, nonce)
	if err != nil {
		t.Fatal(err)
	}
	dstPFNs := []hw.PFN{7, 8, 9}
	// Out-of-order delivery is rejected by the sequence check.
	if err := target.ReceiveUpdatePages(th, dstPFNs[1:2], pkts[1:2]); !errors.Is(err, ErrBadSequence) {
		t.Fatalf("want ErrBadSequence for out-of-order packet, got %v", err)
	}
	for i, pfn := range dstPFNs {
		if err := target.ReceiveUpdatePages(th, []hw.PFN{pfn}, pkts[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	// Replaying a consumed packet is rejected too.
	if err := target.ReceiveUpdatePages(th, dstPFNs[:1], pkts[:1]); !errors.Is(err, ErrBadSequence) {
		t.Fatalf("want ErrBadSequence for replayed packet, got %v", err)
	}
	if err := target.ReceiveFinish(th, mvm); err != nil {
		t.Fatal(err)
	}
	if err := target.Activate(th, 2); err != nil {
		t.Fatal(err)
	}
	for i, pfn := range dstPFNs {
		got := make([]byte, hw.PageSize)
		if err := tctl.Read(hw.Access{PA: pfn.Addr(), Encrypted: true, ASID: 2}, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, secrets[i]) {
			t.Fatalf("migrated page %d mismatch", i)
		}
		// The transported packets themselves are ciphertext.
		if bytes.Contains(pkts[i].Data, []byte("migrate me")) {
			t.Fatalf("transport packet %d holds plaintext", i)
		}
	}
	// SEND_FINISH retired the origin context: further updates illegal.
	if _, err := origin.SendUpdatePages(h, srcPFNs[:1], slab(1)); !errors.Is(err, ErrBadState) {
		t.Fatalf("want ErrBadState after finish, got %v", err)
	}
}

func TestSendCancelResumesGuest(t *testing.T) {
	// SEND_CANCEL aborts an in-progress migration and returns the context
	// to the running state with the transport session scrubbed.
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
	if _, err := origin.SendStart(h, targetPub, []byte("cancelled-run!")); err != nil {
		t.Fatal(err)
	}
	if _, err := origin.SendUpdatePages(h, page, slab(1)); err != nil {
		t.Fatal(err)
	}
	if err := origin.SendCancel(h); err != nil {
		t.Fatal(err)
	}
	// Back to running: a fresh SEND session starts from scratch.
	if _, err := origin.SendUpdatePages(h, page, slab(1)); !errors.Is(err, ErrBadState) {
		t.Fatalf("want ErrBadState outside a session, got %v", err)
	}
	if err := origin.SendCancel(h); !errors.Is(err, ErrBadState) {
		t.Fatalf("want ErrBadState cancelling outside a session, got %v", err)
	}
	if _, err := origin.SendStart(h, targetPub, []byte("second-attempt")); err != nil {
		t.Fatalf("fresh SEND after cancel: %v", err)
	}
	pkts, err := origin.SendUpdatePages(h, page, slab(1))
	if err != nil {
		t.Fatal(err)
	}
	if pkts[0].Seq != 0 {
		t.Fatalf("cancel must reset the transport sequence, got %d", pkts[0].Seq)
	}
}

func TestHelperContextsIOPath(t *testing.T) {
	// The s-dom / r-dom construction of Section 4.3.5: helper contexts
	// sharing the guest's Kvek, one in sending and one in receiving
	// state, with a common TEK agreed platform-to-itself.
	fw, ctl := newFW(t, 64)
	h, _ := fw.LaunchStart(0)
	if err := fw.LaunchFinish(h); err != nil {
		t.Fatal(err)
	}
	if err := fw.Activate(h, 5); err != nil {
		t.Fatal(err)
	}

	selfPub, _ := fw.PublicKey()
	nonce := []byte("io-session")
	sdom, err := fw.LaunchHelper(h)
	if err != nil {
		t.Fatal(err)
	}
	kwrap, err := fw.SendStart(sdom, selfPub, nonce)
	if err != nil {
		t.Fatal(err)
	}
	rdom, err := fw.ReceiveHelperStart(h, kwrap, selfPub, nonce)
	if err != nil {
		t.Fatal(err)
	}

	// Guest writes plaintext into its encrypted buffer Md.
	md := hw.PFN(20).Addr()
	data := bytes.Repeat([]byte("disk sector data"), 32) // 512 bytes
	if err := ctl.Write(hw.Access{PA: md, Encrypted: true, ASID: 5}, data); err != nil {
		t.Fatal(err)
	}
	// I/O write: SendIO re-encrypts Kvek -> TEK, tweaked by the sector
	// number, into ciphertext for the shared buffer.
	ct, err := fw.SendIO(sdom, md, len(data), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(data) || bytes.Contains(ct, []byte("disk sector data")) {
		t.Fatal("I/O ciphertext leaks plaintext")
	}
	// I/O read: ReceiveIO re-encrypts TEK -> Kvek into another guest
	// buffer.
	dst := hw.PFN(21).Addr()
	if err := fw.ReceiveIO(rdom, dst, ct, 42); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := ctl.Read(hw.Access{PA: dst, Encrypted: true, ASID: 5}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("I/O round trip through s-dom/r-dom mismatch")
	}
	// Alignment enforcement on the address and the length.
	if _, err := fw.SendIO(sdom, md+1, 16, 0); !errors.Is(err, ErrNotAligned) {
		t.Fatalf("send_io misaligned address: want ErrNotAligned, got %v", err)
	}
	if _, err := fw.SendIO(sdom, md, 17, 0); !errors.Is(err, ErrNotAligned) {
		t.Fatalf("send_io misaligned length: want ErrNotAligned, got %v", err)
	}
	if err := fw.ReceiveIO(rdom, dst+1, ct, 42); !errors.Is(err, ErrNotAligned) {
		t.Fatalf("receive_io misaligned address: want ErrNotAligned, got %v", err)
	}
	if err := fw.ReceiveIO(rdom, dst, ct[:17], 42); !errors.Is(err, ErrNotAligned) {
		t.Fatalf("receive_io misaligned length: want ErrNotAligned, got %v", err)
	}
	// Each command is legal only on the helper in its own state.
	if _, err := fw.SendIO(rdom, md, len(data), 42); !errors.Is(err, ErrBadState) {
		t.Fatalf("send_io on the receiving helper: want ErrBadState, got %v", err)
	}
	if err := fw.ReceiveIO(sdom, dst, ct, 42); !errors.Is(err, ErrBadState) {
		t.Fatalf("receive_io on the sending helper: want ErrBadState, got %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateInvalid: "invalid", StateLaunching: "launching", StateRunning: "running",
		StateSending: "sending", StateReceiving: "receiving", StateSent: "sent",
		State(42): "state(42)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestPropertyWrapUnwrapRoundTrip(t *testing.T) {
	f := func(tek, tik [32]byte, nonce []byte) bool {
		kekSeed := append([]byte("shared"), nonce...)
		kek := deriveKEK(kekSeed, nonce)
		w, err := wrapKeys(kek, TransportKeys{TEK: tek, TIK: tik})
		if err != nil {
			return false
		}
		got, err := unwrapKeys(kek, w)
		if err != nil {
			return false
		}
		return got.TEK == tek && got.TIK == tik
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransportRoundTripAndTagging(t *testing.T) {
	tk := TransportKeys{}
	copy(tk.TEK[:], bytes.Repeat([]byte{1}, 32))
	copy(tk.TIK[:], bytes.Repeat([]byte{2}, 32))
	s := newSession(tk)
	f := func(seq uint64, payload []byte) bool {
		pkt := sealPacket(s, seq, append([]byte{}, payload...))
		plain, err := openPacket(s, pkt, make([]byte, len(pkt.Data)))
		if err != nil {
			return false
		}
		if !bytes.Equal(plain, payload) {
			return false
		}
		if len(pkt.Data) > 0 {
			bad := pkt
			bad.Data = append([]byte{}, pkt.Data...)
			bad.Data[0] ^= 1
			if _, err := openPacket(s, bad, make([]byte, len(bad.Data))); err == nil {
				return false // tamper must be detected
			}
		}
		// Changing the seq breaks the tag too.
		bad2 := pkt
		bad2.Seq++
		if _, err := openPacket(s, bad2, make([]byte, len(bad2.Data))); err == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
