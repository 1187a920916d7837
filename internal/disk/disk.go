// Package disk provides the sector-addressed backing store behind the PV
// block backend, plus the Kblk image cipher the guest owner uses to
// pre-encrypt disk images (Section 4.3.2).
//
// The image cipher is an XEX construction tweaked by byte offset, so
// identical sectors at different LBAs encrypt differently — the same
// property the memory engine has, applied at rest.
package disk

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"fidelius/internal/hw"
)

// SectorSize is the disk sector size in bytes.
const SectorSize = 512

// ErrOutOfRange reports an access beyond the end of the disk.
var ErrOutOfRange = errors.New("disk: sector out of range")

// Disk is a flat array of sectors. It stores exactly the bytes it is
// given: ciphertext if the writer encrypts, plaintext if not — the
// backend and the physical disk are both outside the trust boundary.
type Disk struct {
	data []byte
}

// New returns a zeroed disk with the given number of sectors.
func New(sectors int) *Disk {
	return &Disk{data: make([]byte, sectors*SectorSize)}
}

func (d *Disk) check(lba uint64, n int) error {
	if (lba+uint64(n))*SectorSize > uint64(len(d.data)) {
		return fmt.Errorf("%w: lba %d + %d", ErrOutOfRange, lba, n)
	}
	return nil
}

// ReadSector copies one sector into buf (len >= SectorSize).
func (d *Disk) ReadSector(lba uint64, buf []byte) error {
	if err := d.check(lba, 1); err != nil {
		return err
	}
	copy(buf[:SectorSize], d.data[lba*SectorSize:])
	return nil
}

// WriteSector stores one sector.
func (d *Disk) WriteSector(lba uint64, data []byte) error {
	if err := d.check(lba, 1); err != nil {
		return err
	}
	if len(data) < SectorSize {
		return fmt.Errorf("disk: short sector write (%d bytes)", len(data))
	}
	copy(d.data[lba*SectorSize:(lba+1)*SectorSize], data)
	return nil
}

// Snapshot returns a copy of the raw disk contents — the view of anyone
// holding the physical medium or the backend.
func (d *Disk) Snapshot() []byte {
	out := make([]byte, len(d.data))
	copy(out, d.data)
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
	dk := sha256.Sum256(append([]byte("kblk-data:"), kblk[:]...))
	tk := sha256.Sum256(append([]byte("kblk-tweak:"), kblk[:]...))
	x, err := hw.NewXEX(dk[:16], tk[:16])
	if err != nil {
		return nil, err
	}
	return &ImageCipher{x: x}, nil
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
