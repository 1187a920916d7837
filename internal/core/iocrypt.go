package core

import (
	"fmt"

	"fidelius/internal/cycles"
	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/xen"
)

// The two para-virtualized I/O protection interfaces of Section 4.3.5.
// Both run inside the guest, so the data placed in the shared (plaintext)
// pages is already ciphertext by the time the driver domain can see it.

// AESNIFront is the AES-NI path: the front-end driver encrypts and
// decrypts block data with Kblk directly, using the hardware AES
// instruction set. Write requests are batched; reads are decrypted at
// sector granularity, which can duplicate work — exactly the asymmetry the
// paper's fio results show (Table 3).
type AESNIFront struct {
	g      *xen.GuestEnv
	f      *xen.BlockFrontend
	cipher *disk.ImageCipher
}

// NewAESNIFront builds the protected front-end. kblk is read by the guest
// kernel from its own (decrypted) kernel image.
func NewAESNIFront(g *xen.GuestEnv, f *xen.BlockFrontend, kblk [32]byte) (*AESNIFront, error) {
	c, err := disk.NewImageCipher(kblk)
	if err != nil {
		return nil, err
	}
	return &AESNIFront{g: g, f: f, cipher: c}, nil
}

// aesniSectorCost is the AES-NI cost of one 512-byte sector.
const aesniSectorCost = disk.SectorSize / 16 * cycles.AESBlockHW

// WriteSectors encrypts data with Kblk and writes it through the PV path.
// Encryption happens in a batched manner off the critical path.
func (a *AESNIFront) WriteSectors(lba uint64, data []byte) error {
	if len(data)%disk.SectorSize != 0 {
		return fmt.Errorf("core: write of %d bytes is not sector aligned", len(data))
	}
	total := uint64(len(data) / disk.SectorSize)
	window := a.f.DataSectors()
	buf := make([]byte, disk.SectorSize)
	for done := uint64(0); done < total; {
		n := total - done
		if n > window {
			n = window
		}
		// Batched write encryption overlaps the previous request's disk
		// time: large batches hide ~70% of the AES latency, small ones
		// only ~30% (the fio write asymmetry of Table 3).
		factor := uint64(7)
		if n >= 16 {
			factor = 3
		}
		a.g.Charge(n * aesniSectorCost * factor / 10)
		for s := uint64(0); s < n; s++ {
			copy(buf, data[(done+s)*disk.SectorSize:])
			if err := a.cipher.EncryptSector(lba+done+s, buf); err != nil {
				return err
			}
			if err := a.f.PutData(s, buf); err != nil {
				return err
			}
		}
		if err := a.f.Request(xen.BlkOpWrite, lba+done, n, 0); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// ReadSectors reads through the PV path and decrypts with Kblk. The
// decryption sits on the critical path and — because requests complete at
// sector granularity — can be duplicated, which the paper identifies as
// the seq-read overhead source; the duplication is modelled in the cost.
func (a *AESNIFront) ReadSectors(lba uint64, buf []byte) error {
	if len(buf)%disk.SectorSize != 0 {
		return fmt.Errorf("core: read of %d bytes is not sector aligned", len(buf))
	}
	total := uint64(len(buf) / disk.SectorSize)
	window := a.f.DataSectors()
	for done := uint64(0); done < total; {
		n := total - done
		if n > window {
			n = window
		}
		if err := a.f.Request(xen.BlkOpRead, lba+done, n, 0); err != nil {
			return err
		}
		for s := uint64(0); s < n; s++ {
			sector := buf[(done+s)*disk.SectorSize : (done+s+1)*disk.SectorSize]
			if err := a.f.GetData(s, sector); err != nil {
				return err
			}
			// Decryption on the critical path, duplicated at sector
			// granularity.
			a.g.Charge(2 * aesniSectorCost)
			if err := a.cipher.DecryptSector(lba+done+s, sector); err != nil {
				return err
			}
		}
		done += n
	}
	return nil
}

// SEVFront is the SEV-API path for processors without AES-NI: the guest
// stages plaintext in its dedicated encrypted buffer Md and asks Fidelius
// (via the retrofitted event channel hypercall) to have the firmware
// re-encrypt it into the shared area under the transport key.
type SEVFront struct {
	g     *xen.GuestEnv
	f     *xen.BlockFrontend
	mdGFN uint64
}

// NewSEVFront builds the SEV-path front-end. The Md buffer is the first
// guest page past the shared data area.
func NewSEVFront(g *xen.GuestEnv, f *xen.BlockFrontend) *SEVFront {
	return &SEVFront{g: g, f: f, mdGFN: g.Info.DataGFN + g.Info.DataLen}
}

// window is the per-request sector budget: bounded by both the shared
// area and the one-page Md buffer.
func (s *SEVFront) window() uint64 {
	w := s.f.DataSectors()
	if w > xen.SectorsPerPage {
		w = xen.SectorsPerPage
	}
	return w
}

// WriteSectors copies plaintext into Md (ordinary encrypted guest
// memory), has the firmware re-encrypt it into the shared area, then
// issues the ring request.
func (s *SEVFront) WriteSectors(lba uint64, data []byte) error {
	if len(data)%disk.SectorSize != 0 {
		return fmt.Errorf("core: write of %d bytes is not sector aligned", len(data))
	}
	total := uint64(len(data) / disk.SectorSize)
	window := s.window()
	mdBase := s.mdGFN << hw.PageShift
	for done := uint64(0); done < total; {
		n := total - done
		if n > window {
			n = window
		}
		if err := s.g.Write(mdBase, data[done*disk.SectorSize:(done+n)*disk.SectorSize]); err != nil {
			return err
		}
		if _, err := s.g.Hypercall(xen.HCFideliusIO, 1, s.mdGFN, lba+done, n, 0); err != nil {
			return err
		}
		if err := s.f.Request(xen.BlkOpWrite, lba+done, n, 0); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// ReadSectors issues the ring request, then has the firmware re-encrypt
// the shared-area ciphertext into Md under Kvek, and copies it out.
func (s *SEVFront) ReadSectors(lba uint64, buf []byte) error {
	if len(buf)%disk.SectorSize != 0 {
		return fmt.Errorf("core: read of %d bytes is not sector aligned", len(buf))
	}
	total := uint64(len(buf) / disk.SectorSize)
	window := s.window()
	mdBase := s.mdGFN << hw.PageShift
	for done := uint64(0); done < total; {
		n := total - done
		if n > window {
			n = window
		}
		if err := s.f.Request(xen.BlkOpRead, lba+done, n, 0); err != nil {
			return err
		}
		if _, err := s.g.Hypercall(xen.HCFideliusIO, 0, s.mdGFN, lba+done, n, 0); err != nil {
			return err
		}
		if err := s.g.Read(mdBase, buf[done*disk.SectorSize:(done+n)*disk.SectorSize]); err != nil {
			return err
		}
		done += n
	}
	return nil
}
