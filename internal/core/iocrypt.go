package core

import (
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
	// sector stages one sector's ciphertext on the write path. It lives
	// here rather than on the stack because the cipher hands it to a
	// cipher.Block, which would move a local to the heap on every call;
	// the front-end belongs to one guest vCPU, so one buffer serves.
	sector [disk.SectorSize]byte
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
// Encryption happens in a batched manner off the critical path. data is
// copied before it is encrypted, so the caller's plaintext is untouched.
func (a *AESNIFront) WriteSectors(lba uint64, data []byte) error {
	return a.f.Transfer(xen.BlkOpWrite, lba, data, a.f.DataSectors(), a.encrypt)
}

// ReadSectors reads through the PV path and decrypts with Kblk. The
// decryption sits on the critical path and — because requests complete at
// sector granularity — can be duplicated, which the paper identifies as
// the seq-read overhead source; the duplication is modelled in the cost.
func (a *AESNIFront) ReadSectors(lba uint64, buf []byte) error {
	return a.f.Transfer(xen.BlkOpRead, lba, buf, a.f.DataSectors(), a.decrypt)
}

// encrypt is the AES-NI write stage: it charges one chunk's batched
// encryption and stages each sector's Kblk ciphertext in the shared area.
func (a *AESNIFront) encrypt(lba uint64, chunk []byte) error {
	n := uint64(len(chunk) / disk.SectorSize)
	// Batched write encryption overlaps the previous request's disk
	// time: large batches hide ~70% of the AES latency, small ones
	// only ~30% (the fio write asymmetry of Table 3).
	factor := uint64(7)
	if n >= 16 {
		factor = 3
	}
	a.g.Charge(n * aesniSectorCost * factor / 10)
	buf := a.sector[:]
	for s := uint64(0); s < n; s++ {
		copy(buf, chunk[s*disk.SectorSize:])
		if err := a.cipher.EncryptSector(lba+s, buf); err != nil {
			return err
		}
		if err := a.f.PutData(s, buf); err != nil {
			return err
		}
	}
	return nil
}

// decrypt is the AES-NI read stage: it copies each sector out of the
// shared area and decrypts it with Kblk.
func (a *AESNIFront) decrypt(lba uint64, chunk []byte) error {
	for s := uint64(0); s < uint64(len(chunk)/disk.SectorSize); s++ {
		sector := chunk[s*disk.SectorSize : (s+1)*disk.SectorSize]
		if err := a.f.GetData(s, sector); err != nil {
			return err
		}
		// Decryption on the critical path, duplicated at sector
		// granularity.
		a.g.Charge(2 * aesniSectorCost)
		if err := a.cipher.DecryptSector(lba+s, sector); err != nil {
			return err
		}
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
func (s *SEVFront) window() uint64 { return min(s.f.DataSectors(), xen.SectorsPerPage) }

// WriteSectors copies plaintext into Md (ordinary encrypted guest
// memory), has the firmware re-encrypt it into the shared area, then
// issues the ring request.
func (s *SEVFront) WriteSectors(lba uint64, data []byte) error {
	return s.f.Transfer(xen.BlkOpWrite, lba, data, s.window(), func(lba uint64, chunk []byte) error {
		if err := s.g.Write(s.mdGFN<<hw.PageShift, chunk); err != nil {
			return err
		}
		_, err := s.g.Hypercall(xen.HCFideliusIO, 1, s.mdGFN, lba, uint64(len(chunk)/disk.SectorSize), 0)
		return err
	})
}

// ReadSectors issues the ring request, then has the firmware re-encrypt
// the shared-area ciphertext into Md under Kvek, and copies it out.
func (s *SEVFront) ReadSectors(lba uint64, buf []byte) error {
	return s.f.Transfer(xen.BlkOpRead, lba, buf, s.window(), func(lba uint64, chunk []byte) error {
		if _, err := s.g.Hypercall(xen.HCFideliusIO, 0, s.mdGFN, lba, uint64(len(chunk)/disk.SectorSize), 0); err != nil {
			return err
		}
		return s.g.Read(s.mdGFN<<hw.PageShift, chunk)
	})
}
