package xen

import (
	"errors"
	"fmt"

	"fidelius/internal/cycles"
	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/telemetry"
)

// The para-virtualized block protocol (Section 2.3): the front-end driver
// in the guest shares a ring page and a set of persistent data pages with
// the back-end in the driver domain, fills requests, and kicks an event
// channel; the back-end moves sectors between the data pages and the disk
// and posts a response.
//
// Ring page layout (one outstanding request, synchronous):
//
//	offset   0: request  {id, op, lba, count, dataOff} (5×u64)
//	offset 256: response {id, status}                  (2×u64)
//
// The shared pages are necessarily unencrypted (C=0): the driver domain
// could not read them otherwise. What privacy the guest gets is decided by
// what the front-end chooses to place there — plaintext in the baseline,
// Kblk- or TEK-ciphertext under Fidelius's two I/O protection modes.

// Block operations.
const (
	// BlkOpRead requests sectors from disk into the data area.
	BlkOpRead = 0
	// BlkOpWrite requests sectors from the data area to disk.
	BlkOpWrite = 1
)

// Block response status.
const (
	// BlkStatusOK reports success.
	BlkStatusOK = 0
	// BlkStatusError reports failure.
	BlkStatusError = 1
)

// SectorsPerPage is the number of 512-byte sectors in one data page.
const SectorsPerPage = hw.PageSize / disk.SectorSize

const (
	reqOffset  = 0
	respOffset = 256
)

// BlkRingGFN and BlkDataGFN fix where the shared pages live in the
// guest's physical space.
const (
	BlkRingGFN = 1
	BlkDataGFN = 2
)

// BlockBackend is the driver-domain half of the PV block device. It is
// untrusted: everything it observes (Snoop) is available to the
// adversary of the threat model.
type BlockBackend struct {
	x       *Xen
	d       *Domain
	disk    *disk.Disk
	ringPA  hw.PhysAddr
	dataPA  []hw.PhysAddr
	port    uint32
	baseLBA uint64

	// Snoop, when enabled, captures every byte the backend moves —
	// modelling a curious driver domain on the I/O path.
	SnoopEnabled bool
	Snoop        []byte

	// nextRead and nextWrite track sequentiality for the seek model.
	nextRead  uint64
	nextWrite uint64
}

// AttachBlockDevice wires a disk to a domain: it establishes the
// persistent grants for the ring and data pages, binds the event channel,
// and records the layout in the domain's start info (which the toolstack
// publishes afterwards with WriteStartInfo).
func (x *Xen) AttachBlockDevice(d *Domain, dk *disk.Disk, dataPages int, port uint32) (*BlockBackend, error) {
	if dataPages < 1 {
		return nil, errors.New("xen: block device needs at least one data page")
	}
	need := uint64(BlkDataGFN + dataPages)
	if need >= uint64(d.MemPages) {
		return nil, fmt.Errorf("xen: domain too small for %d data pages", dataPages)
	}
	b := &BlockBackend{x: x, d: d, disk: dk, port: port}

	// Persistent grants for ring + data pages, created on behalf of the
	// front-end during driver initialisation.
	pas, err := x.SharePages(d, BlkRingGFN, dataPages+1)
	if err != nil {
		return nil, err
	}
	b.ringPA = pas[0]
	b.dataPA = pas[1:]

	x.Events.Bind(d.ID, port, b.handleKick)
	d.Info.RingGFN = BlkRingGFN
	d.Info.DataGFN = BlkDataGFN
	d.Info.DataLen = uint64(dataPages)
	d.Info.Port = port
	x.domsMu.Lock()
	x.backends[d.ID] = b
	x.domsMu.Unlock()
	// Advertise the device in the XenStore, as the toolstack would.
	prefix := vbdPath(d.ID) + "/"
	x.Store.Set(prefix+"ring-gfn", fmt.Sprint(BlkRingGFN))
	x.Store.Set(prefix+"data-gfn", fmt.Sprint(BlkDataGFN))
	x.Store.Set(prefix+"data-pages", fmt.Sprint(dataPages))
	x.Store.Set(prefix+"event-channel", fmt.Sprint(port))
	return b, nil
}

// SharePages establishes persistent dom0 grants for count consecutive
// guest frames starting at startGFN (on behalf of the guest's front-end
// driver, as the toolstack does during device attach) and returns the
// backing physical addresses in order. Each page gets a grant-table
// entry through the interposer — Fidelius's gatekeeper verifies the
// sharing was pre-declared — and is retyped UseShared in the allocator.
func (x *Xen) SharePages(d *Domain, startGFN uint64, count int) ([]hw.PhysAddr, error) {
	pas := make([]hw.PhysAddr, 0, count)
	for i := 0; i < count; i++ {
		gfn := startGFN + uint64(i)
		pfn, ok := d.GPAFrame(gfn)
		if !ok {
			return nil, fmt.Errorf("xen: shared gfn %d unbacked", gfn)
		}
		// Grant bytes are shared host state: raw reads take the gate
		// lock, released before the interposed write takes its own.
		x.M.Host.Lock()
		ref, err := d.Grant.FreeRef()
		x.M.Host.Unlock()
		if err != nil {
			return nil, err
		}
		slot, err := d.Grant.SlotPA(ref)
		if err != nil {
			return nil, err
		}
		entry := GrantEntry{Flags: GrantInUse, Grantee: Dom0, GFN: gfn}
		if err := x.Interpose.WriteGrant(d, slot, entry); err != nil {
			return nil, err
		}
		x.M.Alloc.SetUse(pfn, UseShared, d.ID)
		pas = append(pas, pfn.Addr())
	}
	return pas, nil
}

// vbdPath is the XenStore directory advertising a domain's block device.
func vbdPath(id DomID) string { return fmt.Sprintf("device/vbd/%d", id) }

// detachBlockDevice drops a dying domain's block backend and its
// XenStore nodes.
func (x *Xen) detachBlockDevice(id DomID) {
	if _, ok := x.Backend(id); !ok {
		return
	}
	x.Store.Delete(vbdPath(id))
	x.domsMu.Lock()
	delete(x.backends, id)
	x.domsMu.Unlock()
}

// Backend returns the block backend attached to a domain.
func (x *Xen) Backend(id DomID) (*BlockBackend, bool) {
	x.domsMu.RLock()
	b, ok := x.backends[id]
	x.domsMu.RUnlock()
	return b, ok
}

func (b *BlockBackend) read64(pa hw.PhysAddr) (uint64, error) {
	var buf [8]byte
	if err := b.x.M.Ctl.Read(hw.Access{PA: pa}, buf[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(buf[i]) << (8 * i)
	}
	return v, nil
}

func (b *BlockBackend) write64(pa hw.PhysAddr, v uint64) error {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return b.x.M.Ctl.Write(hw.Access{PA: pa}, buf[:])
}

// dataSector returns the physical address of the idx'th sector of the
// data area.
func (b *BlockBackend) dataSector(idx uint64) (hw.PhysAddr, error) {
	page := idx / SectorsPerPage
	if page >= uint64(len(b.dataPA)) {
		return 0, fmt.Errorf("xen: data sector %d beyond shared area", idx)
	}
	return b.dataPA[page] + hw.PhysAddr(idx%SectorsPerPage)*disk.SectorSize, nil
}

// handleKick services one request from the ring.
func (b *BlockBackend) handleKick() error {
	var req [5]uint64
	for i := range req {
		v, err := b.read64(b.ringPA + reqOffset + hw.PhysAddr(8*i))
		if err != nil {
			return err
		}
		req[i] = v
	}
	id, op, lba, count, dataOff := req[0], req[1], req[2], req[3], req[4]
	tel := b.x.M.Ctl.Telem
	tel.M.BlkRequests.Inc()
	tel.M.BlkSectors.Add(count)
	if tel.Tracing() {
		dir := "read"
		if op == BlkOpWrite {
			dir = "write"
		}
		tel.EmitDetail(telemetry.KindBlkRequest, uint32(b.d.ID), uint32(b.d.ASID),
			count*cycles.DiskSectorAccess, lba, count, dir)
	}
	// Seek model: non-sequential requests pay head movement (reads) or a
	// smaller write-cache penalty (writes). The xen.disk_seeks counters
	// are the per-kind seek totals benchtab and fideliustop divide by
	// serve.ops to show seeks-per-op.
	switch op {
	case BlkOpRead:
		if lba != b.nextRead {
			b.x.M.Ctl.Cycles.Charge(cycles.DiskSeekRead)
			tel.M.DiskSeekReads.Inc()
		}
		b.nextRead = lba + count
	case BlkOpWrite:
		if lba != b.nextWrite {
			b.x.M.Ctl.Cycles.Charge(cycles.DiskSeekWrite)
			tel.M.DiskSeekWrites.Inc()
		}
		b.nextWrite = lba + count
	}
	status := uint64(BlkStatusOK)
	buf := make([]byte, disk.SectorSize)
	for s := uint64(0); s < count; s++ {
		pa, err := b.dataSector(dataOff + s)
		if err != nil {
			status = BlkStatusError
			break
		}
		b.x.M.Ctl.Cycles.Charge(cycles.DiskSectorAccess)
		switch op {
		case BlkOpWrite:
			if err := b.x.M.Ctl.Read(hw.Access{PA: pa}, buf); err != nil {
				status = BlkStatusError
				break
			}
			if b.SnoopEnabled {
				b.Snoop = append(b.Snoop, buf...)
			}
			if err := b.disk.WriteSector(b.baseLBA+lba+s, buf); err != nil {
				status = BlkStatusError
			}
		case BlkOpRead:
			if err := b.disk.ReadSector(b.baseLBA+lba+s, buf); err != nil {
				status = BlkStatusError
				break
			}
			if b.SnoopEnabled {
				b.Snoop = append(b.Snoop, buf...)
			}
			if err := b.x.M.Ctl.Write(hw.Access{PA: pa}, buf); err != nil {
				status = BlkStatusError
			}
		default:
			status = BlkStatusError
		}
		if status != BlkStatusOK {
			break
		}
	}
	if err := b.write64(b.ringPA+respOffset, id); err != nil {
		return err
	}
	return b.write64(b.ringPA+respOffset+8, status)
}

// BlockFrontend is the guest half of the PV block device. This baseline
// front-end moves plaintext through the shared pages; the Fidelius I/O
// protection layers (internal/core) wrap it with encryption.
type BlockFrontend struct {
	g       *GuestEnv
	ringGPA uint64
	dataGPA uint64
	dataLen uint64
	port    uint32
	nextID  uint64
}

// NewBlockFrontend initialises the front-end from the guest's start info.
func NewBlockFrontend(g *GuestEnv) (*BlockFrontend, error) {
	if g.Info.DataLen == 0 {
		return nil, errors.New("xen: no block device in start info")
	}
	return &BlockFrontend{
		g:       g,
		ringGPA: g.Info.RingGFN << hw.PageShift,
		dataGPA: g.Info.DataGFN << hw.PageShift,
		dataLen: g.Info.DataLen,
		port:    g.Info.Port,
	}, nil
}

// DataSectors reports the capacity of the shared data area in sectors.
func (f *BlockFrontend) DataSectors() uint64 { return f.dataLen * SectorsPerPage }

// Request posts one ring request and waits for its response. Exposed so
// protected front-ends (internal/core) can drive the ring themselves
// after staging ciphertext in the shared area.
func (f *BlockFrontend) Request(op, lba, count, dataOff uint64) error {
	id := f.nextID
	f.nextID++
	req := [5]uint64{id, op, lba, count, dataOff}
	var buf [40]byte
	for i, v := range req {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(v >> (8 * j))
		}
	}
	if err := f.g.WriteUnencrypted(f.ringGPA+reqOffset, buf[:]); err != nil {
		return err
	}
	if _, err := f.g.Hypercall(HCEventChannelOp, EvtOpSend, uint64(f.port)); err != nil {
		return err
	}
	var resp [16]byte
	if err := f.g.ReadUnencrypted(f.ringGPA+respOffset, resp[:]); err != nil {
		return err
	}
	var gotID, status uint64
	for j := 0; j < 8; j++ {
		gotID |= uint64(resp[j]) << (8 * j)
		status |= uint64(resp[8+j]) << (8 * j)
	}
	if gotID != id {
		return fmt.Errorf("xen: response id %d for request %d", gotID, id)
	}
	if status != BlkStatusOK {
		return fmt.Errorf("xen: block request failed (status %d)", status)
	}
	return nil
}

// PutData copies bytes into the shared data area at a sector index.
func (f *BlockFrontend) PutData(sectorIdx uint64, data []byte) error {
	return f.g.WriteUnencrypted(f.dataGPA+sectorIdx*disk.SectorSize, data)
}

// GetData copies bytes out of the shared data area at a sector index.
func (f *BlockFrontend) GetData(sectorIdx uint64, buf []byte) error {
	return f.g.ReadUnencrypted(f.dataGPA+sectorIdx*disk.SectorSize, buf)
}

// WriteSectors writes len(data)/512 sectors at lba, staging through the
// shared area in plaintext (the unprotected baseline).
func (f *BlockFrontend) WriteSectors(lba uint64, data []byte) error {
	if len(data)%disk.SectorSize != 0 {
		return fmt.Errorf("xen: write of %d bytes is not sector aligned", len(data))
	}
	total := uint64(len(data) / disk.SectorSize)
	window := f.DataSectors()
	for done := uint64(0); done < total; {
		n := total - done
		if n > window {
			n = window
		}
		chunk := data[done*disk.SectorSize : (done+n)*disk.SectorSize]
		if err := f.PutData(0, chunk); err != nil {
			return err
		}
		if err := f.Request(BlkOpWrite, lba+done, n, 0); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// ReadSectors reads len(buf)/512 sectors at lba through the shared area.
func (f *BlockFrontend) ReadSectors(lba uint64, buf []byte) error {
	if len(buf)%disk.SectorSize != 0 {
		return fmt.Errorf("xen: read of %d bytes is not sector aligned", len(buf))
	}
	total := uint64(len(buf) / disk.SectorSize)
	window := f.DataSectors()
	for done := uint64(0); done < total; {
		n := total - done
		if n > window {
			n = window
		}
		if err := f.Request(BlkOpRead, lba+done, n, 0); err != nil {
			return err
		}
		if err := f.GetData(0, buf[done*disk.SectorSize:(done+n)*disk.SectorSize]); err != nil {
			return err
		}
		done += n
	}
	return nil
}
