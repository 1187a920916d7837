package core

import (
	"bytes"
	"fmt"
	"testing"

	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

// sectorIO is what every block front-end offers a guest.
type sectorIO interface {
	WriteSectors(lba uint64, data []byte) error
	ReadSectors(lba uint64, buf []byte) error
}

// ioGuest launches a protected VM with a two-page shared data area on a
// fresh disk. gek selects the Section 8 launch, whose ENC/DEC commands
// replace the s-dom/r-dom helpers; otherwise the VM gets an SEV I/O
// session.
func ioGuest(t *testing.T, gek bool) (*xen.Xen, *Fidelius, *xen.Domain, *GuestBundle, *disk.Disk) {
	t.Helper()
	x, f := newPlatform(t)
	var d *xen.Domain
	var b *GuestBundle
	var err error
	if gek {
		owner, _ := sev.NewOwner()
		img, key, err := PrepareGEKGuest(owner, make([]byte, hw.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		pub, _ := f.M.FW.PublicKey()
		gb, err := BindGEKGuest(owner, pub, img, key)
		if err != nil {
			t.Fatal(err)
		}
		if d, err = f.LaunchVMFromGEK("io-gek", 64, gb); err != nil {
			t.Fatal(err)
		}
	} else {
		b, _ = newBundle(t, f, make([]byte, hw.PageSize), nil)
		if d, err = f.LaunchVM("io-sev", 64, b); err != nil {
			t.Fatal(err)
		}
		if err := f.SetupIOSession(d); err != nil {
			t.Fatal(err)
		}
	}
	dk := disk.New(128)
	if _, err := f.AttachProtectedDisk(d, dk, 2, 1, b); err != nil {
		t.Fatal(err)
	}
	if err := x.WriteStartInfo(d); err != nil {
		t.Fatal(err)
	}
	return x, f, d, b, dk
}

// TestIOCommandsReuseNoKeystream rewrites one sector through the SEV-API
// front-end, on both firmware paths. Under a keystream fixed per LBA the
// two ciphertexts XOR to the two plaintexts' XOR, so a driver domain that
// knows one write reads the other.
func TestIOCommandsReuseNoKeystream(t *testing.T) {
	for _, gek := range []bool{false, true} {
		t.Run(fmt.Sprintf("gek=%v", gek), func(t *testing.T) {
			x, _, d, _, dk := ioGuest(t, gek)
			p1 := bytes.Repeat([]byte("A"), disk.SectorSize)
			p2 := bytes.Repeat([]byte("attack at dawn!!"), disk.SectorSize/16)
			var c1, c2, c3 [disk.SectorSize]byte
			x.StartVCPU(d, func(g *xen.GuestEnv) error {
				bf, err := xen.NewBlockFrontend(g)
				if err != nil {
					return err
				}
				front := NewSEVFront(g, bf)
				for _, w := range []struct {
					lba  uint64
					data []byte
					ct   []byte
				}{{100, p1, c1[:]}, {100, p2, c2[:]}, {101, p1, c3[:]}} {
					if err := front.WriteSectors(w.lba, w.data); err != nil {
						return err
					}
					if err := dk.ReadSector(w.lba, w.ct); err != nil {
						return err
					}
				}
				got := make([]byte, disk.SectorSize)
				if err := front.ReadSectors(100, got); err != nil {
					return err
				}
				if !bytes.Equal(got, p2) {
					t.Error("rewritten sector does not read back")
				}
				return nil
			})
			if err := x.Run(d); err != nil {
				t.Fatal(err)
			}
			recovered := make([]byte, disk.SectorSize)
			for i := range recovered {
				recovered[i] = c1[i] ^ c2[i] ^ p1[i]
			}
			if bytes.Equal(recovered, p2) {
				t.Fatal("C1^C2^P1 recovers the rewritten sector: one keystream per LBA")
			}
			if c1 == c3 {
				t.Fatal("one plaintext encrypts alike at two LBAs")
			}
		})
	}
}

// TestTransferWindowEdges drives the shared chunk loop of every front-end
// at the edges of its window: each size is written and read back, every
// chunk costs exactly one ring request, and a protected front-end puts
// no plaintext on the disk.
func TestTransferWindowEdges(t *testing.T) {
	x, f, d, b, dk := ioGuest(t, false)
	requests := f.M.Ctl.Telem.M.BlkRequests
	var kblk [32]byte
	x.StartVCPU(d, func(g *xen.GuestEnv) error {
		return g.Read(f.KernelBase(d, b)<<hw.PageShift+KblkOffset, kblk[:])
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	fronts := []struct {
		name      string
		protected bool
		window    uint64
		open      func(g *xen.GuestEnv, bf *xen.BlockFrontend) (sectorIO, error)
	}{
		{"plain", false, 2 * xen.SectorsPerPage, func(_ *xen.GuestEnv, bf *xen.BlockFrontend) (sectorIO, error) {
			return bf, nil
		}},
		{"aesni", true, 2 * xen.SectorsPerPage, func(g *xen.GuestEnv, bf *xen.BlockFrontend) (sectorIO, error) {
			return NewAESNIFront(g, bf, kblk)
		}},
		{"sev", true, xen.SectorsPerPage, func(g *xen.GuestEnv, bf *xen.BlockFrontend) (sectorIO, error) {
			return NewSEVFront(g, bf), nil
		}},
	}
	for _, fr := range fronts {
		w := fr.window
		for _, n := range []uint64{1, w - 1, w, w + 1, 3*w + 5} {
			t.Run(fmt.Sprintf("%s/%d", fr.name, n), func(t *testing.T) {
				marker := []byte(fmt.Sprintf("%-16s", fr.name+"-plain"))
				data := bytes.Repeat(marker, int(n)*disk.SectorSize/16)
				got := make([]byte, len(data))
				want := (n + w - 1) / w
				var writeReqs, readReqs uint64
				x.StartVCPU(d, func(g *xen.GuestEnv) error {
					bf, err := xen.NewBlockFrontend(g)
					if err != nil {
						return err
					}
					front, err := fr.open(g, bf)
					if err != nil {
						return err
					}
					before := requests.Value()
					if err := front.WriteSectors(7, data); err != nil {
						return err
					}
					writeReqs = requests.Value() - before
					if err := front.ReadSectors(7, got); err != nil {
						return err
					}
					readReqs = requests.Value() - before - writeReqs
					// A length that is not whole sectors never reaches
					// the ring.
					before = requests.Value()
					if err := front.WriteSectors(7, make([]byte, disk.SectorSize+1)); err == nil {
						t.Error("unaligned write accepted")
					}
					if err := front.ReadSectors(7, got[:disk.SectorSize-1]); err == nil {
						t.Error("unaligned read accepted")
					}
					if requests.Value() != before {
						t.Error("an unaligned transfer issued a ring request")
					}
					return nil
				})
				if err := x.Run(d); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("round trip mismatch")
				}
				if writeReqs != want || readReqs != want {
					t.Fatalf("%d sectors took %d write and %d read requests, want %d each", n, writeReqs, readReqs, want)
				}
				if fr.protected && bytes.Contains(dk.Snapshot(), marker) {
					t.Fatal("plaintext on the disk")
				}
			})
		}
	}
}

// TestShutdownLeavesNoFrameUnderIntegrity tears down a VM whose memory
// is under the Section 8 integrity engine: its frames go back to the
// allocator unprotected, and the tree root is what it was before the
// VM's frames joined it.
func TestShutdownLeavesNoFrameUnderIntegrity(t *testing.T) {
	_, f := newPlatform(t)
	b, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	keep, err := f.LaunchVM("keep", 32, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.EnableIntegrity(keep); err != nil {
		t.Fatal(err)
	}
	b2, _ := newBundle(t, f, make([]byte, hw.PageSize), nil)
	d, err := f.LaunchVM("gone", 32, b2)
	if err != nil {
		t.Fatal(err)
	}
	integ := f.M.Ctl.Integ
	root := integ.Root()
	if err := f.EnableIntegrity(d); err != nil {
		t.Fatal(err)
	}
	frames := append([]hw.PFN(nil), d.Frames...)
	if err := f.ShutdownVM(d); err != nil {
		t.Fatal(err)
	}
	for _, pfn := range frames {
		if pfn != 0 && integ.Protected(pfn) {
			t.Fatalf("frame %#x still under integrity protection after shutdown", pfn)
		}
	}
	if integ.Root() != root {
		t.Fatal("integrity root still covers the destroyed VM's frames")
	}
}

// TestIOCryptAllocatesPerRequest guards the SEV I/O path against
// per-sector heap buffers: SEND_IO/ENC seal into, and RECEIVE_IO/DEC
// open in place, one sector buffer per request, so an 8-sector request
// allocates no more than a 1-sector one.
func TestIOCryptAllocatesPerRequest(t *testing.T) {
	for _, gek := range []bool{false, true} {
		t.Run(fmt.Sprintf("gek=%v", gek), func(t *testing.T) {
			x, _, d, _, _ := ioGuest(t, gek)
			gk := x.Interpose.(*Gatekeeper)
			for _, write := range []bool{true, false} {
				allocs := func(count uint64) float64 {
					return testing.AllocsPerRun(20, func() {
						if err := gk.IOCrypt(d, write, 5, 0, count, 0); err != nil {
							t.Fatal(err)
						}
					})
				}
				if one, eight := allocs(1), allocs(8); eight > one {
					t.Errorf("write=%v: an 8-sector request allocated %v times, a 1-sector one %v", write, eight, one)
				}
			}
		})
	}
}
