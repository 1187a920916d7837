package migrate

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fidelius/internal/cycles"
	"fidelius/internal/sev"
)

// fakeSource simulates a guest as a version number per page plus a
// scripted sequence of writes executed one per quantum. Packets carry
// (gfn, version) with a real SHA-256 tag so a corrupting transport is
// caught by the fake target's tag check, mirroring the firmware's.
type fakeSource struct {
	name       string
	pages      int
	mem        map[uint64]uint64
	dirty      map[uint64]bool
	tracking   bool
	script     []uint64 // gfn written per quantum; empty => guest done
	pos        int
	loop       bool // loop the script forever (a never-idle writer)
	pktSeq     uint64
	cyc        uint64
	started    bool
	finished   bool
	canceled   bool
	failFinish error
	short      bool // SendPages drops the last packet of every chunk
}

func newFakeSource(pages int, script []uint64) *fakeSource {
	s := &fakeSource{name: "guest", pages: pages, mem: map[uint64]uint64{}, dirty: map[uint64]bool{}, script: script}
	for g := 0; g < pages; g++ {
		s.mem[uint64(g)] = 1
	}
	return s
}

func (s *fakeSource) Name() string  { return s.name }
func (s *fakeSource) MemPages() int { return s.pages }

func (s *fakeSource) BackedGFNs() []uint64 {
	out := make([]uint64, 0, s.pages)
	for g := 0; g < s.pages; g++ {
		out = append(out, uint64(g))
	}
	return out
}

func (s *fakeSource) StartDirty() error {
	s.tracking = true
	s.dirty = map[uint64]bool{}
	return nil
}

func (s *fakeSource) CollectDirty() ([]uint64, error) {
	var out []uint64
	for g := 0; g < s.pages; g++ {
		if s.dirty[uint64(g)] {
			out = append(out, uint64(g))
		}
	}
	s.dirty = map[uint64]bool{}
	return out, nil
}

func (s *fakeSource) StopDirty() error {
	s.tracking = false
	return nil
}

func (s *fakeSource) SendStart() (sev.WrappedKeys, []byte, error) {
	s.started = true
	return sev.WrappedKeys{Ciphertext: []byte("wrapped-tek-tik")}, []byte("nonce-nonce-nonce"), nil
}

func fakePacket(seq, gfn, version uint64) sev.Packet {
	data := make([]byte, 16)
	binary.LittleEndian.PutUint64(data[:8], gfn)
	binary.LittleEndian.PutUint64(data[8:], version)
	return sev.Packet{Seq: seq, Data: data, Tag: sha256.Sum256(data)}
}

func (s *fakeSource) SendPages(gfns []uint64) ([]sev.Packet, error) {
	pkts := make([]sev.Packet, 0, len(gfns))
	for _, gfn := range gfns {
		pkts = append(pkts, fakePacket(s.pktSeq, gfn, s.mem[gfn]))
		s.pktSeq++
		s.cyc += 100
	}
	if s.short {
		pkts = pkts[:len(pkts)-1]
	}
	return pkts, nil
}

func (s *fakeSource) SendFinish() (sev.Measurement, error) {
	if s.failFinish != nil {
		return sev.Measurement{}, s.failFinish
	}
	s.finished = true
	return sev.Measurement{0xAA}, nil
}

func (s *fakeSource) Cancel() error {
	s.canceled = true
	return nil
}

func (s *fakeSource) RunQuantum() (bool, error) {
	if s.pos >= len(s.script) {
		if !s.loop || len(s.script) == 0 {
			return true, nil
		}
		s.pos = 0
	}
	gfn := s.script[s.pos]
	s.pos++
	s.mem[gfn]++
	if s.tracking {
		s.dirty[gfn] = true
	}
	s.cyc += 1000
	return false, nil
}

func (s *fakeSource) Cycles() uint64 { return s.cyc }

// fakeTarget reconstructs memory from packets, verifying the tag of every
// packet and that firmware sequence numbers arrive strictly in order —
// the invariant a duplicated or reordered transport must not break.
type fakeTarget struct {
	started  bool
	finished bool
	aborted  bool
	nextSeq  uint64
	mem      map[uint64]uint64
	applies  int
}

func (t *fakeTarget) ReceiveStart(name string, memPages int, kwrap sev.WrappedKeys, nonce []byte) error {
	if t.started {
		return errors.New("double start")
	}
	if name == "" || memPages <= 0 || len(kwrap.Ciphertext) == 0 || len(nonce) == 0 {
		return errors.New("bad start frame")
	}
	t.started = true
	t.mem = map[uint64]uint64{}
	return nil
}

func (t *fakeTarget) ReceivePage(gfn uint64, pkt sev.Packet) error {
	if !t.started {
		return errors.New("page before start")
	}
	if sha256.Sum256(pkt.Data) != pkt.Tag {
		return errors.New("bad tag")
	}
	if pkt.Seq != t.nextSeq {
		return fmt.Errorf("firmware seq %d, want %d", pkt.Seq, t.nextSeq)
	}
	t.nextSeq++
	t.applies++
	g := binary.LittleEndian.Uint64(pkt.Data[:8])
	if g != gfn {
		return errors.New("gfn mismatch")
	}
	t.mem[gfn] = binary.LittleEndian.Uint64(pkt.Data[8:])
	return nil
}

func (t *fakeTarget) ReceiveFinish(mvm sev.Measurement) error {
	if mvm != (sev.Measurement{0xAA}) {
		return errors.New("measurement mismatch")
	}
	t.finished = true
	return nil
}

func (t *fakeTarget) Abort() error {
	t.aborted = true
	return nil
}

// runMigration wires src→conn→tgt with Receive on a goroutine and
// returns Send's outcome.
func runMigration(t *testing.T, src Source, tgt Target, senderConn, receiverConn Conn, cfg Config) (*Stats, error, error) {
	t.Helper()
	recvErr := make(chan error, 1)
	go func() { recvErr <- Receive(tgt, receiverConn) }()
	stats, err := Send(src, senderConn, cfg)
	var rerr error
	select {
	case rerr = <-recvErr:
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not terminate")
	}
	return stats, err, rerr
}

func checkMemEqual(t *testing.T, src *fakeSource, tgt *fakeTarget) {
	t.Helper()
	for g := 0; g < src.pages; g++ {
		if tgt.mem[uint64(g)] != src.mem[uint64(g)] {
			t.Errorf("gfn %d: target has version %d, source has %d", g, tgt.mem[uint64(g)], src.mem[uint64(g)])
		}
	}
}

func TestLiveMigrationConverges(t *testing.T) {
	// 32 pages; the guest rewrites a 4-page working set for a while and
	// then idles, so pre-copy must converge without forcing.
	script := make([]uint64, 0, 40)
	for i := 0; i < 40; i++ {
		script = append(script, uint64(i%4))
	}
	src := newFakeSource(32, script)
	tgt := &fakeTarget{}
	a, b := Pipe(4)
	stats, err, rerr := runMigration(t, src, tgt, a, b, Config{FinalPages: 4, AckTimeout: time.Second})
	if err != nil || rerr != nil {
		t.Fatalf("send err=%v recv err=%v", err, rerr)
	}
	if !tgt.finished || !src.finished {
		t.Fatal("migration did not complete on both sides")
	}
	if stats.Rounds < 2 {
		t.Fatalf("expected iterative rounds, got %d", stats.Rounds)
	}
	if stats.ForcedFinal {
		t.Fatal("bounded working set should converge, not force the final round")
	}
	if stats.PagesSent != tgt.applies {
		t.Fatalf("sent %d pages, target applied %d", stats.PagesSent, tgt.applies)
	}
	checkMemEqual(t, src, tgt)
}

func TestHighDirtyRateForcesFinalRound(t *testing.T) {
	// The guest rewrites 16 of 24 pages forever: the dirty set can never
	// drop below FinalPages, so the heuristic must force the final round
	// rather than loop.
	script := make([]uint64, 16)
	for i := range script {
		script[i] = uint64(i)
	}
	src := newFakeSource(24, script)
	src.loop = true
	tgt := &fakeTarget{}
	a, b := Pipe(4)
	stats, err, rerr := runMigration(t, src, tgt, a, b, Config{FinalPages: 4, MaxRounds: 50, AckTimeout: time.Second})
	if err != nil || rerr != nil {
		t.Fatalf("send err=%v recv err=%v", err, rerr)
	}
	if !stats.ForcedFinal {
		t.Fatal("non-converging guest must trigger the forced final round")
	}
	if stats.Rounds >= 50 {
		t.Fatalf("forced long before MaxRounds, got %d rounds", stats.Rounds)
	}
	checkMemEqual(t, src, tgt)
	if !tgt.finished {
		t.Fatal("target did not activate")
	}
}

func TestStopAndCopyBaseline(t *testing.T) {
	src := newFakeSource(16, []uint64{1, 2, 3})
	tgt := &fakeTarget{}
	a, b := Pipe(4)
	stats, err, rerr := runMigration(t, src, tgt, a, b, Config{StopAndCopy: true, AckTimeout: time.Second})
	if err != nil || rerr != nil {
		t.Fatalf("send err=%v recv err=%v", err, rerr)
	}
	if stats.Rounds != 1 {
		t.Fatalf("stop-and-copy is one round, got %d", stats.Rounds)
	}
	if src.tracking {
		t.Fatal("stop-and-copy must not arm dirty tracking")
	}
	if got := src.mem[1]; got != 1 {
		t.Fatalf("guest ran during stop-and-copy: page 1 version %d", got)
	}
	checkMemEqual(t, src, tgt)
}

func TestTransportDropIsRetried(t *testing.T) {
	src := newFakeSource(16, []uint64{1, 2, 1, 2})
	tgt := &fakeTarget{}
	a, b := Pipe(8)
	lossy := &Faulty{Conn: a, DropEvery: 3}
	stats, err, rerr := runMigration(t, src, tgt, lossy, b, Config{AckTimeout: 50 * time.Millisecond})
	if err != nil || rerr != nil {
		t.Fatalf("send err=%v recv err=%v", err, rerr)
	}
	if stats.Retries == 0 {
		t.Fatal("a dropping transport must cost retries")
	}
	if stats.PagesSent != tgt.applies {
		t.Fatalf("retries must not double-apply: sent %d, applied %d", stats.PagesSent, tgt.applies)
	}
	checkMemEqual(t, src, tgt)
}

func TestTransportDuplicateAppliedOnce(t *testing.T) {
	src := newFakeSource(16, []uint64{1, 2, 1, 2})
	tgt := &fakeTarget{}
	a, b := Pipe(16)
	dup := &Faulty{Conn: a, DupEvery: 2}
	stats, err, rerr := runMigration(t, src, tgt, dup, b, Config{AckTimeout: time.Second})
	if err != nil || rerr != nil {
		t.Fatalf("send err=%v recv err=%v", err, rerr)
	}
	// fakeTarget's strict firmware-seq check fails the test if any
	// duplicate is applied twice.
	if stats.PagesSent != tgt.applies {
		t.Fatalf("duplicates must collapse: sent %d, applied %d", stats.PagesSent, tgt.applies)
	}
	checkMemEqual(t, src, tgt)
}

func TestTransientCorruptionIsRetried(t *testing.T) {
	src := newFakeSource(16, []uint64{1, 2, 1, 2})
	tgt := &fakeTarget{}
	a, b := Pipe(8)
	mitm := &Faulty{Conn: a, CorruptEvery: 5}
	stats, err, rerr := runMigration(t, src, tgt, mitm, b, Config{AckTimeout: time.Second})
	if err != nil || rerr != nil {
		t.Fatalf("send err=%v recv err=%v", err, rerr)
	}
	if stats.Retries == 0 {
		t.Fatal("corrupted frames must be nacked and retried")
	}
	checkMemEqual(t, src, tgt)
}

func TestRetryExhaustionAbortsCleanly(t *testing.T) {
	src := newFakeSource(8, nil)
	a, _ := Pipe(16) // nobody ever acks
	stats, err := Send(src, a, Config{AckTimeout: 5 * time.Millisecond, MaxRetries: 2})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
	if !src.canceled {
		t.Fatal("abort must SEND_CANCEL the source back to running")
	}
	if src.tracking {
		t.Fatal("abort must tear down dirty tracking")
	}
	if stats.Retries != 2 {
		t.Fatalf("want 2 retries, got %d", stats.Retries)
	}
}

func TestSenderAbortReachesReceiver(t *testing.T) {
	// A source-side failure after the session opened must propagate an
	// abort frame so the target scrubs its half-received state.
	for _, tc := range []struct {
		name  string
		fault func(*fakeSource)
	}{
		{"finish-refused", func(s *fakeSource) { s.failFinish = errors.New("firmware says no") }},
		// A packet count short of the gfns requested would desynchronise
		// frames from pages, so the engine refuses the batch.
		{"short-batch", func(s *fakeSource) { s.short = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newFakeSource(8, nil)
			tc.fault(src)
			tgt := &fakeTarget{}
			a, b := Pipe(8)
			_, err, rerr := runMigration(t, src, tgt, a, b, Config{AckTimeout: time.Second})
			if err == nil {
				t.Fatal("want sender error")
			}
			if !errors.Is(rerr, ErrAborted) {
				t.Fatalf("receiver should see the abort, got %v", rerr)
			}
			if !tgt.aborted {
				t.Fatal("target must scrub on abort")
			}
			if !src.canceled {
				t.Fatal("source must cancel back to running")
			}
			if src.tracking {
				t.Fatal("abort must tear down dirty tracking")
			}
		})
	}
}

func TestReceiverSequenceDiscipline(t *testing.T) {
	// Drive the receiver by hand: a frame ahead of a gap is held and
	// applied once the gap fills, one beyond the window is nacked, a
	// duplicate is re-acked without re-applying, and a repeated finish is
	// re-acked until the sender closes the connection.
	tgt := &fakeTarget{}
	a, b := Pipe(8)
	done := make(chan error, 1)
	go func() { done <- Receive(tgt, b) }()

	mustAck := func(seq uint64, want bool) {
		t.Helper()
		f, err := a.Recv(time.Second)
		if err != nil {
			t.Fatalf("recv ack: %v", err)
		}
		if f.Type != FrameAck || f.AckSeq != seq || f.OK != want {
			t.Fatalf("got %v seq %d ok=%v, want ack seq %d ok=%v (%s)", f.Type, f.AckSeq, f.OK, seq, want, f.Err)
		}
	}
	send := func(f *Frame) {
		t.Helper()
		if err := a.Send(f); err != nil {
			t.Fatal(err)
		}
	}

	send(&Frame{Type: FrameStart, Seq: 0, Name: "g", MemPages: 8,
		Kwrap: sev.WrappedKeys{Ciphertext: []byte("k")}, Nonce: []byte("n")})
	mustAck(0, true)

	// Ahead of a gap: seq 2 and the window's far edge, seq Window, are
	// held while 1 is expected, unacked.
	send(&Frame{Type: FramePage, Seq: 2, GFN: 5, Pkt: fakePacket(1, 5, 9)})
	send(&Frame{Type: FramePage, Seq: Window, GFN: 6, Pkt: fakePacket(Window-1, 6, 11)})
	// Beyond the window: nacked, and the first answer of all.
	send(&Frame{Type: FramePage, Seq: 1 + Window, GFN: 0, Pkt: fakePacket(Window, 0, 1)})
	mustAck(1+Window, false)
	if tgt.applies != 0 {
		t.Fatalf("a frame ahead of the gap was applied: %d applies", tgt.applies)
	}

	// The missing frame arrives: it applies, then the held one does.
	pg := &Frame{Type: FramePage, Seq: 1, GFN: 3, Pkt: fakePacket(0, 3, 7)}
	send(pg)
	mustAck(1, true)
	mustAck(2, true)
	// Its duplicate is re-acked, but the target sees the packet once.
	send(pg)
	mustAck(1, true)
	if tgt.applies != 2 {
		t.Fatalf("want 2 applies, got %d", tgt.applies)
	}
	// The rest of the gap fills: the last frame of it releases the held
	// edge of the window.
	for seq := uint64(3); seq < Window; seq++ {
		send(&Frame{Type: FramePage, Seq: seq, GFN: 7, Pkt: fakePacket(seq-1, 7, seq)})
		mustAck(seq, true)
	}
	mustAck(Window, true)
	if tgt.applies != Window {
		t.Fatalf("want %d applies, got %d", Window, tgt.applies)
	}

	fin := &Frame{Type: FrameFinish, Seq: Window + 1, Mvm: sev.Measurement{0xAA}}
	send(fin)
	mustAck(Window+1, true)
	// The finish ack may be lost: a repeated finish is re-acked.
	send(fin)
	mustAck(Window+1, true)
	select {
	case err := <-done:
		t.Fatalf("receiver returned before the sender closed: %v", err)
	default:
	}
	a.Close()
	if err := <-done; err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if !tgt.finished || tgt.mem[3] != 7 || tgt.mem[5] != 9 || tgt.mem[6] != 11 || tgt.mem[7] != Window-1 {
		t.Fatal("receiver state wrong after manual protocol drive")
	}
}

// finishAckDropper is a receiver endpoint that loses the first ack of the
// finish frame.
type finishAckDropper struct {
	Conn
	finish     uint64
	seen, gone bool
}

func (d *finishAckDropper) Recv(timeout time.Duration) (*Frame, error) {
	f, err := d.Conn.Recv(timeout)
	if err == nil && f.Type == FrameFinish {
		d.finish, d.seen = f.Seq, true
	}
	return f, err
}

func (d *finishAckDropper) Send(f *Frame) error {
	if d.seen && !d.gone && f.Type == FrameAck && f.AckSeq == d.finish {
		d.gone = true
		return nil
	}
	return d.Conn.Send(f)
}

// TestLostFinishAckDoesNotForkTheVM loses the ack of the finish frame.
// The target has activated the VM by then, so the sender must retry the
// finish and get it re-acked, not cancel and resume its own copy.
func TestLostFinishAckDoesNotForkTheVM(t *testing.T) {
	src := newFakeSource(8, nil)
	tgt := &fakeTarget{}
	a, b := Pipe(8)
	drop := &finishAckDropper{Conn: b}
	stats, err, rerr := runMigration(t, src, tgt, a, drop, Config{AckTimeout: 20 * time.Millisecond})
	if err != nil || rerr != nil {
		t.Fatalf("send err=%v recv err=%v", err, rerr)
	}
	if !drop.gone {
		t.Fatal("the finish ack was never dropped")
	}
	if !tgt.finished || src.canceled {
		t.Fatalf("target finished=%v, source canceled=%v: the VM must run on exactly one side", tgt.finished, src.canceled)
	}
	if stats.Retries != 1 {
		t.Fatalf("want the one finish retry, got %d retries", stats.Retries)
	}
}

// withholder is a receiver endpoint that delays every copy of page frame
// seq until frame seq+1 has arrived: the reordering a multipath network
// produces.
type withholder struct {
	Conn
	seq                      uint64
	held, out                Frame
	holding, release, sprung bool
}

func (w *withholder) Recv(timeout time.Duration) (*Frame, error) {
	for {
		if w.release {
			w.release = false
			w.out = w.held
			return &w.out, nil
		}
		f, err := w.Conn.Recv(timeout)
		if err != nil {
			return nil, err
		}
		switch {
		case f.Type == FramePage && f.Seq == w.seq && !w.sprung:
			w.held, w.holding = *f, true
			continue
		case f.Seq == w.seq+1 && w.holding:
			w.release, w.sprung = true, true
		}
		return f, nil
	}
}

// TestReorderedFrameIsHeldNotRetried delivers frame k after frame k+1.
// The receiver holds k+1 until k fills the gap, so the migration
// completes without a single retransmission.
func TestReorderedFrameIsHeldNotRetried(t *testing.T) {
	src := newFakeSource(16, []uint64{1, 2, 1, 2})
	tgt := &fakeTarget{}
	a, b := Pipe(8)
	w := &withholder{Conn: b, seq: 3}
	stats, err, rerr := runMigration(t, src, tgt, a, w, Config{AckTimeout: 200 * time.Millisecond, MaxRetries: 2})
	if err != nil || rerr != nil {
		t.Fatalf("send err=%v recv err=%v", err, rerr)
	}
	if !w.sprung {
		t.Fatal("frame 3 was never withheld")
	}
	if stats.Retries != 0 {
		t.Fatalf("a reordered frame cost %d retries", stats.Retries)
	}
	if stats.PagesSent != tgt.applies {
		t.Fatalf("sent %d pages, target applied %d", stats.PagesSent, tgt.applies)
	}
	checkMemEqual(t, src, tgt)
}

// TestConcurrentEndsUnderFaults runs migrations through the smallest
// pipe the window allows, with frames dropped, duplicated and corrupted
// on both ends, and checks that each ends with the VM running on exactly
// one side: a sender error means the source was cancelled back to
// running and the target scrubbed, success means the target holds every
// page. The second case loses or corrupts over half the sender's frames,
// enough to exhaust a frame's retry budget, so it may end either way.
func TestConcurrentEndsUnderFaults(t *testing.T) {
	for i, tc := range []struct{ tx, rx Faulty }{
		{Faulty{DropEvery: 7, DupEvery: 3, CorruptEvery: 5}, Faulty{DropEvery: 11, DupEvery: 4}},
		{Faulty{DropEvery: 3, DupEvery: 5, CorruptEvery: 4}, Faulty{DropEvery: 4, DupEvery: 3, CorruptEvery: 6}},
		{Faulty{DupEvery: 2, CorruptEvery: 9}, Faulty{DropEvery: 3, DupEvery: 2}},
	} {
		script := make([]uint64, 24)
		for g := range script {
			script[g] = uint64(g * 5 % 40)
		}
		src := newFakeSource(40, script)
		tgt := &fakeTarget{}
		a, b := Pipe(2 * Window)
		tx, rx := tc.tx, tc.rx
		tx.Conn, rx.Conn = a, b
		recvErr := make(chan error, 1)
		go func() { recvErr <- Receive(tgt, &rx) }()
		stats, err := Send(src, &tx, Config{AckTimeout: 20 * time.Millisecond})
		if err != nil {
			a.Close() // the abort frame itself may have been dropped
		}
		var rerr error
		select {
		case rerr = <-recvErr:
		case <-time.After(10 * time.Second):
			t.Fatalf("case %d: receiver did not terminate", i)
		}
		t.Logf("case %d: %d retries, %d wire bytes, send err %v", i, stats.Retries, stats.BytesOnWire, err)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("case %d: send err=%v recv err=%v: the VM runs on both sides or neither", i, err, rerr)
		}
		if err != nil {
			if !src.canceled || !tgt.aborted {
				t.Fatalf("case %d: aborted migration left source canceled=%v target aborted=%v", i, src.canceled, tgt.aborted)
			}
			continue
		}
		if src.canceled || !tgt.finished {
			t.Fatalf("case %d: source canceled=%v, target finished=%v", i, src.canceled, tgt.finished)
		}
		if stats.Retries == 0 {
			t.Fatalf("case %d: a faulty transport must cost retries", i)
		}
		if stats.PagesSent != tgt.applies {
			t.Fatalf("case %d: sent %d pages, target applied %d", i, stats.PagesSent, tgt.applies)
		}
		checkMemEqual(t, src, tgt)
	}
}

// chunkSignal closes sealed when the engine asks for its second chunk.
type chunkSignal struct {
	*fakeSource
	calls  int
	sealed chan struct{}
}

func (s *chunkSignal) SendPages(gfns []uint64) ([]sev.Packet, error) {
	if s.calls++; s.calls == 2 {
		close(s.sealed)
	}
	return s.fakeSource.SendPages(gfns)
}

// lateTarget applies the last page of the first chunk only once the
// source has been asked for the second chunk, or after a bounded wait.
type lateTarget struct {
	*fakeTarget
	sealed     <-chan struct{}
	overlapped bool
}

func (t *lateTarget) ReceivePage(gfn uint64, pkt sev.Packet) error {
	if pkt.Seq == batchPages-1 {
		select {
		case <-t.sealed:
			t.overlapped = true
		case <-time.After(2 * time.Second):
		}
	}
	return t.fakeTarget.ReceivePage(gfn, pkt)
}

// TestSealOverlapsApply checks that the source seals chunk k+1 while the
// target is still applying chunk k: the target holds back the first
// chunk's last page until the second chunk is asked for, which a sender
// that drains each chunk before sealing the next never does.
func TestSealOverlapsApply(t *testing.T) {
	src := &chunkSignal{fakeSource: newFakeSource(2*batchPages, nil), sealed: make(chan struct{})}
	tgt := &lateTarget{fakeTarget: &fakeTarget{}, sealed: src.sealed}
	a, b := Pipe(0)
	stats, err, rerr := runMigration(t, src, tgt, a, b, Config{StopAndCopy: true, AckTimeout: 10 * time.Second})
	if err != nil || rerr != nil {
		t.Fatalf("send err=%v recv err=%v", err, rerr)
	}
	if !tgt.overlapped {
		t.Fatal("the second chunk was not sealed before the first chunk's last page was applied")
	}
	if stats.Retries != 0 || stats.PagesSent != tgt.applies {
		t.Fatalf("%d retries, %d pages sent, %d applied", stats.Retries, stats.PagesSent, tgt.applies)
	}
	checkMemEqual(t, src.fakeSource, tgt.fakeTarget)
}

// TestPipeCarriesFramesUnchanged sends one frame of every kind through a
// pipe, those it queues compactly and those it queues as copies, and
// checks each comes out field for field as it went in.
func TestPipeCarriesFramesUnchanged(t *testing.T) {
	for _, f := range []Frame{
		{Type: FrameStart, Seq: 0, Name: "guest", MemPages: 64,
			Kwrap: sev.WrappedKeys{Nonce: [12]byte{1, 2}, Ciphertext: []byte("wrapped")}, Nonce: []byte("nonce")},
		{Type: FrameStart, Seq: 1, Name: "g", Nonce: []byte{}},
		{Type: FramePage, Seq: 7, Round: 2, GFN: 33, Pkt: fakePacket(6, 33, 4)},
		{Type: FramePage, Seq: 8, GFN: 0, Pkt: sev.Packet{Seq: 7, Data: []byte{}}},
		{Type: FrameFinish, Seq: 9, Round: 3, Mvm: sev.Measurement{0xAA, 0x55}},
		{Type: FrameFinish, Seq: 10},
		{Type: FrameAck, AckSeq: 7, OK: true},
		{Type: FrameAck, AckSeq: 8, Err: "bad tag"},
		{Type: FrameAbort, Seq: 11, Err: "retries exhausted"},
	} {
		a, b := Pipe(0)
		if err := a.Send(&f); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv(time.Second)
		if err != nil {
			t.Fatalf("%v frame: %v", f.Type, err)
		}
		if !reflect.DeepEqual(*got, f) {
			t.Fatalf("%v frame changed in the pipe:\n got %+v\nwant %+v", f.Type, *got, f)
		}
	}
}

func TestLinkChargesCycles(t *testing.T) {
	var ctr cycles.Counter
	a, b := Pipe(4)
	l := &Link{Conn: a, Counter: &ctr, CyclesPerByte: DefaultCyclesPerByte, LatencyCycles: DefaultLatencyCycles}
	f := &Frame{Type: FramePage, Pkt: fakePacket(0, 1, 1)}
	if err := l.Send(f); err != nil {
		t.Fatal(err)
	}
	want := DefaultLatencyCycles + WireSize(f)*DefaultCyclesPerByte
	if ctr.Total() != want {
		t.Fatalf("link charged %d cycles, want %d", ctr.Total(), want)
	}
	if _, err := b.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestPipeTimerLeavesNoStaleTimeout drives one endpoint's reused wait
// timer through every way a timed Recv ends. A wait that timed out,
// then a frame: the frame, not a stale ErrTimeout. A frame taken while
// the wait's timer may already have fired: the next wait still waits.
// A closed pipe: ErrClosed, with a timeout and without.
func TestPipeTimerLeavesNoStaleTimeout(t *testing.T) {
	a, b := Pipe(1)
	if _, err := b.Recv(time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("an empty pipe's wait: want ErrTimeout, got %v", err)
	}
	if err := a.Send(&Frame{Type: FrameAck, AckSeq: 1}); err != nil {
		t.Fatal(err)
	}
	if f, err := b.Recv(time.Second); err != nil || f.AckSeq != 1 {
		t.Fatalf("the wait after a timeout: got %v, %v; want ack 1", f, err)
	}
	for i := uint64(0); i < 50; i++ {
		if err := a.Send(&Frame{Type: FrameAck, AckSeq: i}); err != nil {
			t.Fatal(err)
		}
		// The frame is queued and the timer all but due: either may win.
		f, err := b.Recv(time.Nanosecond)
		if errors.Is(err, ErrTimeout) {
			f, err = b.Recv(time.Second)
		}
		if err != nil || f.AckSeq != i {
			t.Fatalf("round %d: got %v, %v; want ack %d", i, f, err, i)
		}
		// A frame that comes later than the last wait's timer would have
		// fired must still be waited for.
		go func() {
			time.Sleep(time.Millisecond)
			_ = a.Send(&Frame{Type: FrameAck, AckSeq: i + 100})
		}()
		if f, err := b.Recv(time.Second); err != nil || f.AckSeq != i+100 {
			t.Fatalf("round %d: the next wait got %v, %v; want ack %d", i, f, err, i+100)
		}
	}
	a.Close()
	if _, err := b.Recv(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("a timed wait on a closed pipe: want ErrClosed, got %v", err)
	}
	if _, err := b.Recv(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("an untimed wait on a closed pipe: want ErrClosed, got %v", err)
	}
}

func TestPipeCloseUnblocks(t *testing.T) {
	a, b := Pipe(1)
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv(0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := a.Send(&Frame{Type: FrameAbort}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed pipe: want ErrClosed, got %v", err)
	}
}

// slabSource seals SendPages calls into two reused buffers in turn and
// scribbles over the one it is about to reuse first: the Source contract
// at its most hostile, where a packet is valid only until the second call
// after the one that returned it.
type slabSource struct {
	*fakeSource
	slabs [2][]byte
	calls int
}

func (s *slabSource) SendPages(gfns []uint64) ([]sev.Packet, error) {
	slab := s.slabs[s.calls%2]
	for i := range slab {
		slab[i] = 0xEE
	}
	s.calls++
	pkts, err := s.fakeSource.SendPages(gfns)
	if err != nil {
		return nil, err
	}
	for i := range pkts {
		d := slab[i*16 : (i+1)*16]
		copy(d, pkts[i].Data)
		pkts[i].Data = d
	}
	return pkts, nil
}

// TestReusedSendBufferSurvivesFaults runs two migrations in turn whose
// sources reuse two packet buffers in turn, across chunks and from the
// first migration to the second, as a platform reuses its slab's two
// halves, through a transport that drops, duplicates and corrupts frames
// in both directions: a stale duplicate of an overwritten packet must
// never be applied, so each target still reassembles every page.
func TestReusedSendBufferSurvivesFaults(t *testing.T) {
	slabs := [2][]byte{make([]byte, batchPages*16), make([]byte, batchPages*16)}
	for m := 0; m < 2; m++ {
		src := &slabSource{
			fakeSource: newFakeSource(3*batchPages, []uint64{1, 40, 70, 2, 41, 71}),
			slabs:      slabs,
		}
		tgt := &fakeTarget{}
		a, b := Pipe(16)
		sender := &Faulty{Conn: a, DropEvery: 7, DupEvery: 3, CorruptEvery: 5}
		receiver := &Faulty{Conn: b, DropEvery: 11, DupEvery: 4}
		stats, err, rerr := runMigration(t, src, tgt, sender, receiver, Config{AckTimeout: 10 * time.Millisecond})
		if err != nil || rerr != nil {
			t.Fatalf("migration %d: send err=%v recv err=%v", m, err, rerr)
		}
		if src.calls < 3 {
			t.Fatalf("migration %d: %d SendPages calls; no buffer was reused", m, src.calls)
		}
		if stats.Retries == 0 {
			t.Fatalf("migration %d: a faulty transport must cost retries", m)
		}
		if stats.PagesSent != tgt.applies {
			t.Fatalf("migration %d: sent %d pages, target applied %d", m, stats.PagesSent, tgt.applies)
		}
		if !tgt.finished {
			t.Fatalf("migration %d: target did not finish", m)
		}
		checkMemEqual(t, src.fakeSource, tgt)
	}
}
