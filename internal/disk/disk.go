// Package disk provides the sector-addressed backing store behind the PV
// block backend, plus the Kblk image cipher the guest owner uses to
// pre-encrypt disk images (Section 4.3.2).
//
// A disk is backed on first write, like hw.Memory: it pays host memory
// only for the 4 KiB chunks something has written, and a sector nobody
// wrote reads as zeros.
//
// The image cipher is an XEX construction tweaked by byte offset, so
// identical sectors at different LBAs encrypt differently — the same
// property the memory engine has, applied at rest.
package disk

import (
	"errors"
	"fmt"
	"sync/atomic"

	"fidelius/internal/hw"
)

// SectorSize is the disk sector size in bytes.
const SectorSize = 512

// chunkSectors is the number of sectors one backing chunk holds: 4 KiB.
const chunkSectors = 8

// chunkSize is the byte size of one backing chunk.
const chunkSize = chunkSectors * SectorSize

// ErrOutOfRange reports an access beyond the end of the disk.
var ErrOutOfRange = errors.New("disk: sector out of range")

// Disk is a sector-addressed store. It stores exactly the bytes it is
// given: ciphertext if the writer encrypts, plaintext if not — the
// backend and the physical disk are both outside the trust boundary.
//
// Sectors are backed on first write in chunks of chunkSectors: a chunk's
// backing array is installed by the first WriteSector that reaches it,
// and a sector nobody has written reads as zeros. A reader therefore
// sees the same bytes as over a flat zeroed array.
type Disk struct {
	chunks  []atomic.Pointer[[chunkSize]byte]
	sectors uint64
}

// New returns a zeroed disk with the given number of sectors.
func New(sectors int) *Disk {
	if sectors < 0 {
		panic(fmt.Sprintf("disk: negative size %d sectors", sectors))
	}
	return &Disk{
		chunks:  make([]atomic.Pointer[[chunkSize]byte], (sectors+chunkSectors-1)/chunkSectors),
		sectors: uint64(sectors),
	}
}

// Sectors reports the disk's size in sectors.
func (d *Disk) Sectors() uint64 { return d.sectors }

// check refuses lba with ErrOutOfRange unless it names a sector of the
// disk. It compares sector numbers and never forms a byte offset, which
// would wrap for an lba near 2^64 / SectorSize.
func (d *Disk) check(lba uint64) error {
	if lba >= d.sectors {
		return fmt.Errorf("%w: lba %d of %d", ErrOutOfRange, lba, d.sectors)
	}
	return nil
}

// chunk returns the backing array of the chunk holding lba, installing a
// zeroed one if the chunk has never been written. The install is a CAS,
// so concurrent first writes to one chunk agree on a single array and no
// store is lost.
func (d *Disk) chunk(lba uint64) *[chunkSize]byte {
	slot := &d.chunks[lba/chunkSectors]
	if p := slot.Load(); p != nil {
		return p
	}
	if p := new([chunkSize]byte); slot.CompareAndSwap(nil, p) {
		return p
	}
	return slot.Load()
}

// ReadSector copies one sector into buf (len >= SectorSize).
func (d *Disk) ReadSector(lba uint64, buf []byte) error {
	if err := d.check(lba); err != nil {
		return err
	}
	buf = buf[:SectorSize]
	if p := d.chunks[lba/chunkSectors].Load(); p != nil {
		copy(buf, p[lba%chunkSectors*SectorSize:])
	} else {
		clear(buf)
	}
	return nil
}

// WriteSector stores one sector.
func (d *Disk) WriteSector(lba uint64, data []byte) error {
	if err := d.check(lba); err != nil {
		return err
	}
	if len(data) < SectorSize {
		return fmt.Errorf("disk: short sector write (%d bytes)", len(data))
	}
	copy(d.chunk(lba)[lba%chunkSectors*SectorSize:], data[:SectorSize])
	return nil
}

// Snapshot returns a copy of the raw disk contents — the view of anyone
// holding the physical medium or the backend.
func (d *Disk) Snapshot() []byte {
	out := make([]byte, d.sectors*SectorSize)
	for i := range d.chunks {
		if p := d.chunks[i].Load(); p != nil {
			copy(out[i*chunkSize:], p[:])
		}
	}
	return out
}

// ImageCipher encrypts disk sectors under the guest owner's block key
// Kblk. It is used by the owner to prepare the image and by the guest's
// front-end driver (with AES-NI) at runtime.
type ImageCipher struct {
	x *hw.XEX
}

// NewImageCipher derives the XEX subkeys from Kblk.
func NewImageCipher(kblk [32]byte) (*ImageCipher, error) {
	return &ImageCipher{x: hw.NewXEX(kblk, "kblk-data:", "kblk-tweak:")}, nil
}

// xex transforms b in place, one 16-byte block at a time, each tweaked by
// its byte offset on the disk: the memory engine's XEX loop, positioned
// by byte offset instead of physical address.
func (c *ImageCipher) xex(lba uint64, b []byte, encrypt bool) error {
	if len(b)%16 != 0 {
		return fmt.Errorf("disk: buffer length %d not block aligned", len(b))
	}
	if encrypt {
		c.x.EncryptLine(lba*SectorSize, b)
	} else {
		c.x.DecryptLine(lba*SectorSize, b)
	}
	return nil
}

// EncryptSector encrypts a sector-sized buffer in place for the given LBA.
func (c *ImageCipher) EncryptSector(lba uint64, b []byte) error { return c.xex(lba, b, true) }

// DecryptSector decrypts a sector-sized buffer in place for the given LBA.
func (c *ImageCipher) DecryptSector(lba uint64, b []byte) error { return c.xex(lba, b, false) }

// EncryptImage encrypts a whole image starting at LBA 0, padding to a
// sector boundary. Used by the owner's offline preparation.
func (c *ImageCipher) EncryptImage(plain []byte) ([]byte, error) {
	n := (len(plain) + SectorSize - 1) / SectorSize
	out := make([]byte, n*SectorSize)
	copy(out, plain)
	for lba := 0; lba < n; lba++ {
		if err := c.EncryptSector(uint64(lba), out[lba*SectorSize:(lba+1)*SectorSize]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
