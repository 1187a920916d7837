package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fidelius/internal/migrate"
	"fidelius/internal/xen"
)

// liveMigrate runs both ends of a live migration between two platforms,
// the receiver on its own goroutine (it only touches the target machine).
func liveMigrate(t *testing.T, f1 *Fidelius, d *xen.Domain, f2 *Fidelius,
	senderConn, recvConn migrate.Conn, cfg migrate.Config) (*migrate.Stats, error, *xen.Domain, error) {
	t.Helper()
	targetPub, err := f2.M.FW.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	originPub, err := f1.M.FW.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		d   *xen.Domain
		err error
	}
	ch := make(chan res, 1)
	go func() {
		d2, rerr := f2.MigrateInLive(recvConn, originPub)
		ch <- res{d2, rerr}
	}()
	stats, serr := f1.MigrateOutLive(d, targetPub, senderConn, cfg)
	var r res
	select {
	case r = <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("receiver did not terminate")
	}
	return stats, serr, r.d, r.err
}

// workloadGuest populates a spread of pages, then loops over a small
// writable working set, then leaves a final marker. Its exits (NPFs and
// HLTs) are the quanta the pre-copy engine interleaves with page sends.
func workloadGuest(g *xen.GuestEnv) error {
	for i := uint64(0); i < 12; i++ {
		if err := g.Write64(0x2000+i*0x1000, 0x100+i); err != nil {
			return err
		}
	}
	for r := uint64(0); r < 3; r++ {
		for w := uint64(0); w < 3; w++ {
			if err := g.Write64(0x2000+w*0x1000, 0xBEEF0000+r); err != nil {
				return err
			}
		}
		g.Halt()
	}
	return g.Write(0x8000, []byte("LIVE-FINAL-STATE"))
}

func launchWorkload(t *testing.T, f *Fidelius) (*xen.Domain, *GuestBundle) {
	t.Helper()
	kernel := bytes.Repeat([]byte("LIVEMIG-KERNEL!!"), 256) // one page
	b, _ := newBundle(t, f, kernel, nil)
	d, err := f.LaunchVM("live-guest", 48, b)
	if err != nil {
		t.Fatal(err)
	}
	return d, b
}

// verifyWorkloadState runs a reader vCPU on the migrated domain and
// checks the workload's final memory is there.
func verifyWorkloadState(t *testing.T, x *xen.Xen, d *xen.Domain) {
	t.Helper()
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		marker := make([]byte, 16)
		if err := g.Read(0x8000, marker); err != nil {
			return err
		}
		if string(marker) != "LIVE-FINAL-STATE" {
			t.Errorf("final marker = %q", marker)
		}
		for w := uint64(0); w < 3; w++ {
			v, err := g.Read64(0x2000 + w*0x1000)
			if err != nil {
				return err
			}
			if v != 0xBEEF0002 {
				t.Errorf("wset page %d = %#x, want %#x", w, v, uint64(0xBEEF0002))
			}
		}
		v, err := g.Read64(0x2000 + 11*0x1000)
		if err != nil {
			return err
		}
		if v != 0x100+11 {
			t.Errorf("cold page = %#x", v)
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
}

func TestLiveMigrationBeatsStopAndCopyDowntime(t *testing.T) {
	// Live: the guest runs DURING the migration; the engine converges and
	// only the final residue is copied with the vCPU frozen.
	x1, f1 := newPlatform(t)
	_, f2 := newPlatform(t)
	d, _ := launchWorkload(t, f1)
	x1.StartVCPU(d, workloadGuest)

	a, b := migrate.Pipe(8)
	link := &migrate.Link{Conn: a, Counter: f1.M.Ctl.Cycles,
		CyclesPerByte: migrate.DefaultCyclesPerByte, LatencyCycles: migrate.DefaultLatencyCycles}
	live, serr, d2, rerr := liveMigrate(t, f1, d, f2, link, b, migrate.Config{AckTimeout: time.Second})
	if serr != nil || rerr != nil {
		t.Fatalf("live migration failed: send=%v recv=%v", serr, rerr)
	}
	if !live.GuestDone {
		t.Fatal("workload should have completed during pre-copy")
	}
	if live.ForcedFinal {
		t.Fatal("bounded working set must converge, not force")
	}
	if live.Rounds < 2 {
		t.Fatalf("expected iterative pre-copy, got %d rounds", live.Rounds)
	}
	verifyWorkloadState(t, f2.X, d2)

	// Stop-and-copy baseline: same guest, same transport cost model, but
	// frozen for the whole transfer.
	x3, f3 := newPlatform(t)
	_, f4 := newPlatform(t)
	d3, _ := launchWorkload(t, f3)
	x3.StartVCPU(d3, workloadGuest)
	if err := x3.Run(d3); err != nil {
		t.Fatal(err)
	}
	a2, b2 := migrate.Pipe(8)
	link2 := &migrate.Link{Conn: a2, Counter: f3.M.Ctl.Cycles,
		CyclesPerByte: migrate.DefaultCyclesPerByte, LatencyCycles: migrate.DefaultLatencyCycles}
	sc, serr, d4, rerr := liveMigrate(t, f3, d3, f4, link2, b2,
		migrate.Config{StopAndCopy: true, AckTimeout: time.Second})
	if serr != nil || rerr != nil {
		t.Fatalf("stop-and-copy failed: send=%v recv=%v", serr, rerr)
	}
	verifyWorkloadState(t, f4.X, d4)

	if live.DowntimeCycles == 0 || sc.DowntimeCycles == 0 {
		t.Fatalf("downtime not measured: live=%d sc=%d", live.DowntimeCycles, sc.DowntimeCycles)
	}
	if live.DowntimeCycles >= sc.DowntimeCycles {
		t.Fatalf("live downtime %d must beat stop-and-copy %d",
			live.DowntimeCycles, sc.DowntimeCycles)
	}
	// The liveness is paid for in re-dirtied traffic.
	if live.PagesSent <= sc.PagesSent {
		t.Fatalf("live sent %d pages, stop-and-copy %d: pre-copy must re-send dirty pages",
			live.PagesSent, sc.PagesSent)
	}
}

func TestLiveMigrationHighDirtyRateForcesFinal(t *testing.T) {
	// A guest rewriting 16 pages forever can never converge below the
	// threshold: the heuristic must force the final round, not loop.
	x1, f1 := newPlatform(t)
	_, f2 := newPlatform(t)
	d, _ := launchWorkload(t, f1)
	x1.StartVCPU(d, func(g *xen.GuestEnv) error {
		for r := uint64(0); ; r++ {
			for w := uint64(0); w < 16; w++ {
				if err := g.Write64(0x2000+w*0x1000, r); err != nil {
					return err
				}
			}
			g.Halt()
		}
	})

	a, b := migrate.Pipe(8)
	stats, serr, d2, rerr := liveMigrate(t, f1, d, f2, a, b,
		migrate.Config{FinalPages: 4, MaxRounds: 64, AckTimeout: time.Second})
	if serr != nil || rerr != nil {
		t.Fatalf("migration failed: send=%v recv=%v", serr, rerr)
	}
	if !stats.ForcedFinal {
		t.Fatal("non-converging dirty rate must trigger the forced final round")
	}
	if stats.Rounds >= 64 {
		t.Fatalf("heuristic should fire long before MaxRounds; took %d rounds", stats.Rounds)
	}
	if d2 == nil {
		t.Fatal("target VM not activated")
	}
	if _, ok := f2.VM(d2); !ok {
		t.Fatal("target VM not registered with Fidelius")
	}
}

// sniffer records every frame crossing the sender's endpoint, including
// retransmissions and duplicates — the adversary's view of the wire.
type sniffer struct {
	migrate.Conn
	wire *bytes.Buffer
}

func (s *sniffer) Send(f *migrate.Frame) error {
	s.wire.Write(f.Pkt.Data)
	s.wire.Write(f.Nonce)
	s.wire.Write(f.Kwrap.Ciphertext)
	s.wire.Write(f.Mvm[:])
	s.wire.WriteString(f.Name)
	return s.Conn.Send(f)
}

func TestLiveMigrationCiphertextOnlyOnWire(t *testing.T) {
	x1, f1 := newPlatform(t)
	_, f2 := newPlatform(t)
	d, _ := launchWorkload(t, f1)
	// Plant recognizable secrets, completed before migration so the
	// memory image deterministically contains them.
	x1.StartVCPU(d, func(g *xen.GuestEnv) error {
		for i := uint64(0); i < 8; i++ {
			if err := g.Write(0x2000+i*0x1000, []byte("TOP-SECRET-LIVE-PAYLOAD")); err != nil {
				return err
			}
		}
		return nil
	})
	if err := x1.Run(d); err != nil {
		t.Fatal(err)
	}

	// A lossy, duplicating, occasionally-corrupting network: the sniffer
	// sits inside, seeing every frame that actually crosses, retries and
	// all.
	a, b := migrate.Pipe(16)
	sn := &sniffer{Conn: a, wire: &bytes.Buffer{}}
	net := &migrate.Faulty{Conn: sn, DropEvery: 5, DupEvery: 7, CorruptEvery: 11}
	stats, serr, d2, rerr := liveMigrate(t, f1, d, f2, net, b,
		migrate.Config{AckTimeout: 50 * time.Millisecond})
	if serr != nil || rerr != nil {
		t.Fatalf("migration failed: send=%v recv=%v", serr, rerr)
	}
	if stats.Retries == 0 {
		t.Fatal("faulty transport should have cost retries")
	}
	for _, secret := range [][]byte{[]byte("TOP-SECRET-LIVE"), []byte("LIVEMIG-KERNEL")} {
		if bytes.Contains(sn.wire.Bytes(), secret) {
			t.Fatalf("plaintext %q observed on the wire", secret)
		}
	}
	// And the secrets did arrive, under the target's key.
	x2 := f2.X
	x2.StartVCPU(d2, func(g *xen.GuestEnv) error {
		buf := make([]byte, 23)
		if err := g.Read(0x2000, buf); err != nil {
			return err
		}
		if string(buf) != "TOP-SECRET-LIVE-PAYLOAD" {
			t.Errorf("migrated secret = %q", buf)
		}
		return nil
	})
	if err := x2.Run(d2); err != nil {
		t.Fatal(err)
	}
}

// pageTamper corrupts every page frame it forwards — a persistent
// man-in-the-middle no retry can get past.
type pageTamper struct{ migrate.Conn }

func (p pageTamper) Send(f *migrate.Frame) error {
	if f.Type == migrate.FramePage {
		c := *f
		c.Pkt.Data = append([]byte{}, f.Pkt.Data...)
		c.Pkt.Data[0] ^= 1
		return p.Conn.Send(&c)
	}
	return p.Conn.Send(f)
}

// mvmTamper forges the final measurement on every finish frame.
type mvmTamper struct{ migrate.Conn }

func (m mvmTamper) Send(f *migrate.Frame) error {
	if f.Type == migrate.FrameFinish {
		c := *f
		c.Mvm[0] ^= 0xFF
		return m.Conn.Send(&c)
	}
	return m.Conn.Send(f)
}

// recoverableGuest leaves state, yields while the migration runs, then
// verifies its own memory — proof the source VM survived an abort intact.
func recoverableGuest(g *xen.GuestEnv) error {
	if err := g.Write(0x3000, []byte("must-survive-abort")); err != nil {
		return err
	}
	for i := 0; i < 40; i++ {
		g.Halt()
	}
	buf := make([]byte, 18)
	if err := g.Read(0x3000, buf); err != nil {
		return err
	}
	if string(buf) != "must-survive-abort" {
		return errors.New("guest state corrupted")
	}
	return nil
}

func testAbortLeavesSourceIntact(t *testing.T, wrap func(migrate.Conn) migrate.Conn) {
	t.Helper()
	x1, f1 := newPlatform(t)
	_, f2 := newPlatform(t)
	d, _ := launchWorkload(t, f1)
	x1.StartVCPU(d, recoverableGuest)

	targetDomsBefore := len(f2.X.Doms)
	a, b := migrate.Pipe(16)
	stats, serr, _, rerr := liveMigrate(t, f1, d, f2, wrap(a), b,
		migrate.Config{AckTimeout: 20 * time.Millisecond, MaxRetries: 2})
	if !errors.Is(serr, migrate.ErrAborted) {
		t.Fatalf("want ErrAborted from sender, got %v", serr)
	}
	if rerr == nil {
		t.Fatal("receiver must fail on abort")
	}
	if stats.Retries == 0 {
		t.Fatal("the tampered frame should have been retried before giving up")
	}

	// Target: the half-received VM is scrubbed.
	if len(f2.X.Doms) != targetDomsBefore {
		t.Fatalf("target retains %d domains, want %d", len(f2.X.Doms), targetDomsBefore)
	}

	// Source: still a protected VM, still runnable, memory intact — the
	// guest itself verifies its state and returns nil.
	if _, ok := f1.VM(d); !ok {
		t.Fatal("source VM lost its Fidelius record")
	}
	if err := x1.Run(d); err != nil {
		t.Fatalf("source VM not intact after abort: %v", err)
	}

	// And it can migrate again, cleanly, now that the network behaves.
	a2, b2 := migrate.Pipe(8)
	_, serr, d2, rerr := liveMigrate(t, f1, d, f2, a2, b2, migrate.Config{AckTimeout: time.Second})
	if serr != nil || rerr != nil {
		t.Fatalf("clean retry after abort failed: send=%v recv=%v", serr, rerr)
	}
	x2 := f2.X
	x2.StartVCPU(d2, func(g *xen.GuestEnv) error {
		buf := make([]byte, 18)
		if err := g.Read(0x3000, buf); err != nil {
			return err
		}
		if string(buf) != "must-survive-abort" {
			t.Errorf("state after re-migration = %q", buf)
		}
		return nil
	})
	if err := x2.Run(d2); err != nil {
		t.Fatal(err)
	}
}

func TestLiveMigrationTamperedPageAborts(t *testing.T) {
	testAbortLeavesSourceIntact(t, func(c migrate.Conn) migrate.Conn { return pageTamper{c} })
}

func TestLiveMigrationTamperedMeasurementAborts(t *testing.T) {
	testAbortLeavesSourceIntact(t, func(c migrate.Conn) migrate.Conn { return mvmTamper{c} })
}

// finishAckEater is a target endpoint that loses every ack of the finish
// frame: the target activates the VM, but the source never learns it.
type finishAckEater struct {
	migrate.Conn
	finish uint64
	seen   bool
}

func (e *finishAckEater) Recv(timeout time.Duration) (*migrate.Frame, error) {
	f, err := e.Conn.Recv(timeout)
	if err == nil && f.Type == migrate.FrameFinish {
		e.finish, e.seen = f.Seq, true
	}
	return f, err
}

func (e *finishAckEater) Send(f *migrate.Frame) error {
	if e.seen && f.Type == migrate.FrameAck && f.AckSeq == e.finish {
		return nil
	}
	return e.Conn.Send(f)
}

// TestLostFinishAcksLeaveOneRunningCopy: when no finish ack gets
// through, the source cancels and resumes its VM, so the target must
// shut down the copy it already activated when the sender's abort
// arrives. The VM ends up running on the source alone.
func TestLostFinishAcksLeaveOneRunningCopy(t *testing.T) {
	x1, f1 := newPlatform(t)
	_, f2 := newPlatform(t)
	d, _ := launchWorkload(t, f1)
	x1.StartVCPU(d, recoverableGuest)
	targetDomsBefore := len(f2.X.Doms)

	a, b := migrate.Pipe(2 * migrate.Window)
	eater := &finishAckEater{Conn: b}
	_, serr, d2, rerr := liveMigrate(t, f1, d, f2, a, eater,
		migrate.Config{AckTimeout: 10 * time.Millisecond, MaxRetries: 2})
	if !eater.seen {
		t.Fatal("the finish frame never reached the target")
	}
	if !errors.Is(serr, migrate.ErrAborted) {
		t.Fatalf("want ErrAborted from the sender, got %v", serr)
	}
	if !errors.Is(rerr, migrate.ErrAborted) || d2 != nil {
		t.Fatalf("the target kept its copy: domain %v, err %v", d2, rerr)
	}
	if len(f2.X.Doms) != targetDomsBefore {
		t.Fatalf("target retains %d domains, want %d", len(f2.X.Doms), targetDomsBefore)
	}
	if _, ok := f1.VM(d); !ok {
		t.Fatal("source VM lost its Fidelius record")
	}
	if err := x1.Run(d); err != nil {
		t.Fatalf("source VM not intact after abort: %v", err)
	}
}
