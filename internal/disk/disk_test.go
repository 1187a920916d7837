package disk

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDiskReadWrite(t *testing.T) {
	d := New(16)
	if len(d.data) != 16*SectorSize {
		t.Fatalf("capacity = %d bytes", len(d.data))
	}
	sector := bytes.Repeat([]byte{0xAB}, SectorSize)
	if err := d.WriteSector(3, sector); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, SectorSize)
	if err := d.ReadSector(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sector) {
		t.Fatal("sector round trip mismatch")
	}
	if err := d.ReadSector(16, got); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := d.WriteSector(2, []byte{1, 2}); err == nil {
		t.Fatal("expected short-write error")
	}
}

func TestImageCipherRoundTrip(t *testing.T) {
	var kblk [32]byte
	kblk[0] = 9
	c, err := NewImageCipher(kblk)
	if err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte("filesystem block"), SectorSize/16)
	buf := append([]byte{}, plain...)
	if err := c.EncryptSector(7, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, plain) {
		t.Fatal("encryption is identity")
	}
	if err := c.DecryptSector(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, plain) {
		t.Fatal("decrypt(encrypt) != identity")
	}
	// Decrypting at the wrong LBA yields garbage (address tweak).
	if err := c.EncryptSector(7, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.DecryptSector(8, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, plain) {
		t.Fatal("tweak is not LBA dependent")
	}
}

func TestSameSectorDifferentLBACiphertext(t *testing.T) {
	var kblk [32]byte
	c, _ := NewImageCipher(kblk)
	plain := bytes.Repeat([]byte{0x42}, SectorSize)
	a := append([]byte{}, plain...)
	b := append([]byte{}, plain...)
	c.EncryptSector(0, a)
	c.EncryptSector(1, b)
	if bytes.Equal(a, b) {
		t.Fatal("identical sectors at different LBAs encrypt identically")
	}
}

func TestEncryptImage(t *testing.T) {
	var kblk [32]byte
	kblk[5] = 1
	c, _ := NewImageCipher(kblk)
	plain := []byte("a short filesystem image, not sector aligned")
	enc, err := c.EncryptImage(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc)%SectorSize != 0 {
		t.Fatal("image not padded to sector size")
	}
	if bytes.Contains(enc, []byte("filesystem")) {
		t.Fatal("image plaintext visible")
	}
	// Decrypt sector 0 recovers the prefix.
	if err := c.DecryptSector(0, enc[:SectorSize]); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, plain[:len(plain)]) {
		t.Fatal("decrypted image mismatch")
	}
}

func TestUnalignedBufferRejected(t *testing.T) {
	var kblk [32]byte
	c, _ := NewImageCipher(kblk)
	if err := c.EncryptSector(0, make([]byte, 15)); err == nil {
		t.Fatal("unaligned buffer must be rejected")
	}
}

func TestPropertyImageCipherRoundTrip(t *testing.T) {
	var kblk [32]byte
	kblk[1] = 77
	c, _ := NewImageCipher(kblk)
	f := func(lba uint16, seed byte) bool {
		sector := bytes.Repeat([]byte{seed}, SectorSize)
		buf := append([]byte{}, sector...)
		if err := c.EncryptSector(uint64(lba), buf); err != nil {
			return false
		}
		if err := c.DecryptSector(uint64(lba), buf); err != nil {
			return false
		}
		return bytes.Equal(buf, sector)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskSnapshotIsCopy(t *testing.T) {
	d := New(2)
	d.WriteSector(0, bytes.Repeat([]byte{1}, SectorSize))
	snap := d.Snapshot()
	d.WriteSector(0, bytes.Repeat([]byte{2}, SectorSize))
	if snap[0] != 1 {
		t.Fatal("snapshot aliases live disk")
	}
}

// refEncryptSector is the byte-loop XEX the image cipher is defined by:
// per 16-byte block, T = AES(kblk-tweak, byte offset), C = AES(kblk-data,
// P ^ T) ^ T.
func refEncryptSector(t *testing.T, kblk [32]byte, lba uint64, b []byte) {
	t.Helper()
	dk := sha256.Sum256(append([]byte("kblk-data:"), kblk[:]...))
	tk := sha256.Sum256(append([]byte("kblk-tweak:"), kblk[:]...))
	data, err := aes.NewCipher(dk[:16])
	if err != nil {
		t.Fatal(err)
	}
	tweak, err := aes.NewCipher(tk[:16])
	if err != nil {
		t.Fatal(err)
	}
	var in, tw [16]byte
	for i := 0; i < len(b); i += 16 {
		binary.LittleEndian.PutUint64(in[:8], lba*SectorSize+uint64(i))
		tweak.Encrypt(tw[:], in[:])
		for j := range tw {
			b[i+j] ^= tw[j]
		}
		data.Encrypt(b[i:i+16], b[i:i+16])
		for j := range tw {
			b[i+j] ^= tw[j]
		}
	}
}

func TestSectorMatchesByteLoopReference(t *testing.T) {
	var kblk [32]byte
	for i := range kblk {
		kblk[i] = byte(5*i + 1)
	}
	c, err := NewImageCipher(kblk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, lba := range []uint64{0, 1, 77, 1 << 20} {
		plain := make([]byte, SectorSize)
		rng.Read(plain)
		want := append([]byte{}, plain...)
		refEncryptSector(t, kblk, lba, want)
		got := append([]byte{}, plain...)
		if err := c.EncryptSector(lba, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lba %d: sector ciphertext differs from the byte-loop reference", lba)
		}
		if err := c.DecryptSector(lba, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("lba %d: DecryptSector does not invert EncryptSector", lba)
		}
	}
}

func TestEncryptSectorAllocatesNothing(t *testing.T) {
	c, err := NewImageCipher([32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	sector := make([]byte, SectorSize)
	n := testing.AllocsPerRun(100, func() {
		if err := c.EncryptSector(3, sector); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("EncryptSector allocated %v times per call, want 0", n)
	}
}
