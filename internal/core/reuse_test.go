package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fidelius/internal/hw"
	"fidelius/internal/migrate"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

// TestPrepareImageLeavesKernelAndBoots checks PrepareImage's contract for
// a caller that keeps its kernel: the slice is left as it was, the image
// is padded to whole pages, and the image boots to the same bytes.
func TestPrepareImageLeavesKernelAndBoots(t *testing.T) {
	x, f := newPlatform(t)
	owner, err := sev.NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	pub, err := f.M.FW.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	kernel := bytes.Repeat([]byte("OUTSIDE-KERNEL.."), hw.PageSize/16+8) // a page and a half-line
	orig := append([]byte(nil), kernel...)
	img, kwrap, err := owner.PrepareImage(pub, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kernel, orig) {
		t.Fatal("PrepareImage changed the caller's kernel")
	}
	if img.NumPages() != 2 {
		t.Fatalf("image of %d bytes has %d pages, want 2", len(kernel), img.NumPages())
	}
	b := &GuestBundle{Image: img, Kwrap: kwrap, OwnerPub: owner.PublicKey(), Nonce: owner.Nonce()}
	d, err := f.LaunchVM("outside", 16, b)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*hw.PageSize)
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		return g.Read(f.KernelBase(d, b)<<hw.PageShift, got)
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2*hw.PageSize)
	copy(want, kernel)
	if !bytes.Equal(got, want) {
		t.Fatal("the booted kernel is not the caller's kernel padded with zeros")
	}
}

// readMarker runs a vCPU on d that reads len(want) bytes at gpa and
// fails the test unless they are want.
func readMarker(t *testing.T, x *xen.Xen, d *xen.Domain, gpa uint64, want string) {
	t.Helper()
	got := make([]byte, len(want))
	x.StartVCPU(d, func(g *xen.GuestEnv) error { return g.Read(gpa, got) })
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

// TestAbortedMigrationDropsItsSlab checks the slab hand-back rule: a
// migration that succeeded returns its slab to the platform, one that
// aborted does not (a tampered frame the target refused may still hold
// its bytes), and a fresh migration after the abort still succeeds and
// reads back intact.
func TestAbortedMigrationDropsItsSlab(t *testing.T) {
	x1, f1 := newPlatform(t)
	x2, f2 := newPlatform(t)

	clean, _ := launchWorkload(t, f1)
	x1.StartVCPU(clean, workloadGuest)
	a, b := migrate.Pipe(8)
	_, serr, moved, rerr := liveMigrate(t, f1, clean, f2, a, b, migrate.Config{AckTimeout: time.Second})
	if serr != nil || rerr != nil {
		t.Fatalf("clean migration: send=%v recv=%v", serr, rerr)
	}
	verifyWorkloadState(t, x2, moved)
	if len(f1.slabs) != 1 {
		t.Fatalf("%d free slabs after a clean migration, want 1", len(f1.slabs))
	}
	reused := f1.slabs[0]

	d, _ := launchWorkload(t, f1)
	x1.StartVCPU(d, recoverableGuest)
	a, b = migrate.Pipe(16)
	_, serr, _, _ = liveMigrate(t, f1, d, f2, pageTamper{a}, b,
		migrate.Config{AckTimeout: 20 * time.Millisecond, MaxRetries: 2})
	if !errors.Is(serr, migrate.ErrAborted) {
		t.Fatalf("tampered migration: want ErrAborted, got %v", serr)
	}
	if len(f1.slabs) != 0 {
		t.Fatalf("%d free slabs after an aborted migration, want 0: it returned its slab", len(f1.slabs))
	}
	if err := x1.Run(d); err != nil {
		t.Fatalf("source VM not intact after abort: %v", err)
	}

	a, b = migrate.Pipe(8)
	_, serr, d2, rerr := liveMigrate(t, f1, d, f2, a, b, migrate.Config{AckTimeout: time.Second})
	if serr != nil || rerr != nil {
		t.Fatalf("migration after the abort: send=%v recv=%v", serr, rerr)
	}
	readMarker(t, x2, d2, 0x3000, "must-survive-abort")
	if len(f1.slabs) != 1 || f1.slabs[0] == reused {
		t.Fatal("the migration after the abort must have sealed into a fresh slab and returned it")
	}
}

// firstSendBarrier holds a source's first Send until every source
// sharing arrived has reached its own. MigrateOutLive takes its slab
// before it sends anything, so behind the barrier every source holds a
// slab at once, however the goroutines are scheduled.
type firstSendBarrier struct {
	migrate.Conn
	once    sync.Once
	arrived *sync.WaitGroup
}

// arrive counts this source in once and waits for the others. A source
// that failed before sending arrives on its way out, so no source waits
// forever.
func (c *firstSendBarrier) arrive() {
	c.once.Do(func() {
		c.arrived.Done()
		c.arrived.Wait()
	})
}

func (c *firstSendBarrier) Send(f *migrate.Frame) error {
	c.arrive()
	return c.Conn.Send(f)
}

// TestConcurrentLiveMigrationsFromOnePlatform runs two live migrations
// out of one platform at once, to two targets: each must hold its own
// slab, both must read back intact, and both slabs must come back. The
// sources' connections hold their first frame until both have taken a
// slab, so the overlap is forced rather than left to timing.
func TestConcurrentLiveMigrationsFromOnePlatform(t *testing.T) {
	x1, f1 := newPlatform(t)
	var targets [2]*Fidelius
	var doms [2]*xen.Domain
	for i := range doms {
		_, targets[i] = newPlatform(t)
		doms[i], _ = launchWorkload(t, f1)
		marker := fmt.Sprintf("concurrent-vm-%d", i)
		x1.StartVCPU(doms[i], func(g *xen.GuestEnv) error {
			for w := uint64(0); w < 40; w++ {
				if err := g.Write64(0x2000+w*0x400, w); err != nil {
					return err
				}
				g.Halt()
			}
			return g.Write(0x8000, []byte(marker))
		})
	}
	originPub, err := f1.M.FW.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	var wg, arrived sync.WaitGroup
	var moved [2]*xen.Domain
	var serrs, rerrs [2]error
	arrived.Add(len(doms))
	for i := range doms {
		targetPub, err := targets[i].M.FW.PublicKey()
		if err != nil {
			t.Fatal(err)
		}
		a, b := migrate.Pipe(8)
		src := &firstSendBarrier{Conn: a, arrived: &arrived}
		wg.Add(2)
		go func() {
			defer wg.Done()
			moved[i], rerrs[i] = targets[i].MigrateInLive(b, originPub)
		}()
		go func() {
			defer wg.Done()
			if _, serrs[i] = f1.MigrateOutLive(doms[i], targetPub, src, migrate.Config{AckTimeout: 10 * time.Second}); serrs[i] != nil {
				a.Close()
			}
			src.arrive()
		}()
	}
	wg.Wait()
	for i := range doms {
		if serrs[i] != nil || rerrs[i] != nil {
			t.Fatalf("migration %d: send=%v recv=%v", i, serrs[i], rerrs[i])
		}
		readMarker(t, targets[i].X, moved[i], 0x8000, fmt.Sprintf("concurrent-vm-%d", i))
	}
	if len(f1.slabs) != 2 || f1.slabs[0] == f1.slabs[1] {
		t.Fatalf("two concurrent migrations returned %d slabs, want 2 distinct ones", len(f1.slabs))
	}
}
