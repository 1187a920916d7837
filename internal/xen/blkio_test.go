package xen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"fidelius/internal/disk"
	"fidelius/internal/telemetry"
)

func TestPropertyGrantEntryMarshal(t *testing.T) {
	f := func(flags, grantee uint16, gfn uint64) bool {
		e := GrantEntry{Flags: flags, Grantee: DomID(grantee), GFN: gfn}
		var b [GrantEntrySize]byte
		e.Marshal(b[:])
		return UnmarshalGrantEntry(b[:]) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStartInfoMarshal(t *testing.T) {
	f := func(dom uint16, mem, ring, data, n uint32, port, serveGFN, servePort uint32) bool {
		si := &StartInfo{
			DomID:     DomID(dom),
			MemPages:  uint64(mem),
			RingGFN:   uint64(ring),
			DataGFN:   uint64(data),
			DataLen:   uint64(n),
			Port:      port,
			ServeGFN:  uint64(serveGFN),
			ServePort: servePort,
		}
		got, err := UnmarshalStartInfo(si.Marshal())
		return err == nil && *got == *si
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRequestBeyondDisk(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "oob", MemPages: 32, SEV: true})
	dk := disk.New(16) // tiny disk
	if _, err := x.AttachBlockDevice(d, dk, 2, 1); err != nil {
		t.Fatal(err)
	}
	x.WriteStartInfo(d)
	var werr, rerr error
	x.StartVCPU(d, func(g *GuestEnv) error {
		f, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		werr = f.WriteSectors(12, make([]byte, 8*disk.SectorSize)) // crosses the end
		rerr = f.ReadSectors(100, make([]byte, disk.SectorSize))
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if werr == nil {
		t.Error("write beyond disk should fail")
	}
	if rerr == nil {
		t.Error("read beyond disk should fail")
	}
}

// TestBlockRequestHugeLBA sends ring requests whose lba's byte offset
// wraps 64 bits: each must complete with BlkStatusError and leave sector
// 0, which the wrapped offset would alias, unchanged.
func TestBlockRequestHugeLBA(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "huge", MemPages: 32, SEV: true})
	dk := disk.New(16)
	sector0 := bytes.Repeat([]byte{0x5A}, disk.SectorSize)
	if err := dk.WriteSector(0, sector0); err != nil {
		t.Fatal(err)
	}
	if _, err := x.AttachBlockDevice(d, dk, 2, 1); err != nil {
		t.Fatal(err)
	}
	x.WriteStartInfo(d)
	var statuses []uint64
	x.StartVCPU(d, func(g *GuestEnv) error {
		f, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		if err := f.PutData(0, bytes.Repeat([]byte{0xEE}, disk.SectorSize)); err != nil {
			return err
		}
		for _, op := range []uint64{BlkOpWrite, BlkOpRead} {
			if err := f.request(op, 1<<55, 1); err == nil {
				return fmt.Errorf("op %d at lba 1<<55 succeeded", op)
			}
			var resp [8]byte
			if err := g.ReadUnencrypted(f.ringGPA+respOffset+8, resp[:]); err != nil {
				return err
			}
			statuses = append(statuses, binary.LittleEndian.Uint64(resp[:]))
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 || statuses[0] != BlkStatusError || statuses[1] != BlkStatusError {
		t.Fatalf("write and read at lba 1<<55 completed with statuses %v, want BlkStatusError (%d) each", statuses, BlkStatusError)
	}
	got := make([]byte, disk.SectorSize)
	if err := dk.ReadSector(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sector0) {
		t.Fatal("a write at lba 1<<55 changed sector 0")
	}
}

// TestRefusedBlockRequestChargesNothing posts ring requests the backend
// must refuse: a write whose lba and count lie far beyond the disk, an
// unknown op, a data offset near 2^64, and a count larger than the
// shared area. Each must complete with BlkStatusError without counting
// its sectors, charging a seek, moving the seek model's heads, tracing
// a transfer or touching the disk.
func TestRefusedBlockRequestChargesNothing(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "refused", MemPages: 32, SEV: true})
	dk := disk.New(64)
	b, err := x.AttachBlockDevice(d, dk, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	x.WriteStartInfo(d)
	tel := x.M.Ctl.Telem
	tr := tel.StartTrace(0)
	sectors := tel.M.BlkSectors.Value()
	seeks := tel.M.DiskSeekReads.Value() + tel.M.DiskSeekWrites.Value()
	area := 2 * uint64(SectorsPerPage)
	reqs := [][4]uint64{ // op, lba, count, dataOff
		{BlkOpWrite, 1 << 55, 1 << 40, 0},
		{7, 0, 1, 0},
		{BlkOpRead, 5, 1, 1 << 63},
		{BlkOpWrite, 5, area + 1, 0},
	}
	var statuses []uint64
	x.StartVCPU(d, func(g *GuestEnv) error {
		f, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		if err := f.PutData(0, bytes.Repeat([]byte{0xEE}, int(area)*disk.SectorSize)); err != nil {
			return err
		}
		for i, r := range reqs {
			var buf [40]byte
			for k, v := range [5]uint64{uint64(i), r[0], r[1], r[2], r[3]} {
				binary.LittleEndian.PutUint64(buf[8*k:], v)
			}
			if err := g.WriteUnencrypted(f.ringGPA+reqOffset, buf[:]); err != nil {
				return err
			}
			if _, err := g.Hypercall(HCEventChannelOp, EvtOpSend, uint64(f.port)); err != nil {
				return err
			}
			var resp [8]byte
			if err := g.ReadUnencrypted(f.ringGPA+respOffset+8, resp[:]); err != nil {
				return err
			}
			statuses = append(statuses, binary.LittleEndian.Uint64(resp[:]))
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	tel.StopTrace()
	for i, st := range statuses {
		if st != BlkStatusError {
			t.Errorf("request %v completed with status %d, want BlkStatusError", reqs[i], st)
		}
	}
	if len(statuses) != len(reqs) {
		t.Fatalf("%d of %d requests completed", len(statuses), len(reqs))
	}
	if got := tel.M.BlkSectors.Value() - sectors; got != 0 {
		t.Errorf("blk.sectors moved by %d for refused requests", got)
	}
	if got := tel.M.DiskSeekReads.Value() + tel.M.DiskSeekWrites.Value() - seeks; got != 0 {
		t.Errorf("xen.disk_seeks moved by %d for refused requests", got)
	}
	if b.nextRead != 0 || b.nextWrite != 0 {
		t.Errorf("the seek model's heads moved to read %d, write %d", b.nextRead, b.nextWrite)
	}
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindBlkRequest {
			t.Errorf("a refused request traced a %d-sector transfer", e.Arg2)
		}
	}
	if !bytes.Equal(dk.Snapshot(), make([]byte, 64*disk.SectorSize)) {
		t.Error("a refused request wrote to the disk")
	}
}

func TestBlockUnalignedTransfersRejected(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "una", MemPages: 32, SEV: true})
	if _, err := x.AttachBlockDevice(d, disk.New(64), 1, 1); err != nil {
		t.Fatal(err)
	}
	x.WriteStartInfo(d)
	x.StartVCPU(d, func(g *GuestEnv) error {
		f, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		if err := f.WriteSectors(0, make([]byte, 100)); err == nil {
			t.Error("unaligned write accepted")
		}
		if err := f.ReadSectors(0, make([]byte, 700)); err == nil {
			t.Error("unaligned read accepted")
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
}

func TestAttachBlockDeviceValidation(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "v", MemPages: 8, SEV: true})
	if _, err := x.AttachBlockDevice(d, disk.New(64), 0, 1); err == nil {
		t.Error("zero data pages accepted")
	}
	if _, err := x.AttachBlockDevice(d, disk.New(64), 20, 1); err == nil {
		t.Error("data area larger than the domain accepted")
	}
	if _, ok := x.Backend(d.ID); ok {
		t.Error("failed attach registered a backend")
	}
}

func TestFrontendWithoutDevice(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "nodev", MemPages: 16, SEV: true})
	x.StartVCPU(d, func(g *GuestEnv) error {
		if _, err := NewBlockFrontend(g); err == nil {
			t.Error("front-end without a device should fail")
		}
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
}

func TestSeekModelChargesRandomAccess(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "seek", MemPages: 32, SEV: true})
	dk := disk.New(256)
	x.AttachBlockDevice(d, dk, 2, 1)
	x.WriteStartInfo(d)
	buf := make([]byte, 8*disk.SectorSize)
	var seqCycles, randCycles uint64
	x.StartVCPU(d, func(g *GuestEnv) error {
		f, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		// Warm up (first request of each op direction seeks once).
		f.ReadSectors(0, buf)
		c0 := g.Cycles()
		for i := 1; i <= 4; i++ {
			if err := f.ReadSectors(uint64(i*8), buf); err != nil {
				return err
			}
		}
		seqCycles = g.Cycles() - c0
		c0 = g.Cycles()
		for _, lba := range []uint64{96, 16, 120, 48} {
			if err := f.ReadSectors(lba, buf); err != nil {
				return err
			}
		}
		randCycles = g.Cycles() - c0
		return nil
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if randCycles < 3*seqCycles {
		t.Fatalf("random reads (%d) should dwarf sequential (%d)", randCycles, seqCycles)
	}
}

func TestBackendSnoopDisabledByDefault(t *testing.T) {
	x := newXen(t)
	d, _ := x.CreateDomain(DomainConfig{Name: "nosnoop", MemPages: 32, SEV: true})
	backend, err := x.AttachBlockDevice(d, disk.New(64), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x.WriteStartInfo(d)
	x.StartVCPU(d, func(g *GuestEnv) error {
		f, _ := NewBlockFrontend(g)
		return f.WriteSectors(0, bytes.Repeat([]byte{1}, disk.SectorSize))
	})
	if err := x.Run(d); err != nil {
		t.Fatal(err)
	}
	if len(backend.Snoop) != 0 {
		t.Fatal("snoop captured data while disabled")
	}
}
