package hw

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// ctrPair returns the CTR NewCTR builds for key (the kernel, where this
// build and CPU have one) and the cipher.NewCTR path over the same key.
func ctrPair(key [32]byte) (got, generic CTR) {
	got = NewCTR(key)
	generic.expand(key, false)
	return got, generic
}

// referenceCTR is the oracle: a fresh cipher.NewCTR stream over the IV
// LE64(seq) || 0^64, its IV in a buffer of its own.
func referenceCTR(key [32]byte, seq uint64, src []byte) []byte {
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	iv := make([]byte, aes.BlockSize)
	binary.LittleEndian.PutUint64(iv, seq)
	out := make([]byte, len(src))
	cipher.NewCTR(blk, iv).XORKeyStream(out, src)
	return out
}

// checkCTRMatches runs c over plain into a separate buffer with spare
// bytes after it, which must stay untouched, and in place, and fails on
// the first difference from want.
func checkCTRMatches(t *testing.T, name string, c *CTR, seq uint64, plain, want []byte) {
	t.Helper()
	dst := bytes.Repeat([]byte{0xEE}, len(plain)+BlockSize)
	c.XORKeyStream(seq, dst, plain)
	if !bytes.Equal(dst[:len(plain)], want) {
		t.Fatalf("%s: XORKeyStream(seq=%#x, n=%d) differs from cipher.NewCTR", name, seq, len(plain))
	}
	if !bytes.Equal(dst[len(plain):], bytes.Repeat([]byte{0xEE}, BlockSize)) {
		t.Fatalf("%s: XORKeyStream(seq=%#x, n=%d) wrote past len(src)", name, seq, len(plain))
	}
	b := append([]byte(nil), plain...)
	c.XORKeyStream(seq, b, b)
	if !bytes.Equal(b, want) {
		t.Fatalf("%s: in-place XORKeyStream(seq=%#x, n=%d) differs from cipher.NewCTR", name, seq, len(plain))
	}
	c.XORKeyStream(seq, b, b)
	if !bytes.Equal(b, plain) {
		t.Fatalf("%s: XORKeyStream(seq=%#x, n=%d) is not its own inverse", name, seq, len(plain))
	}
}

// checkCTRPair checks the kernel and the cipher.NewCTR path against the
// oracle over the same key, seq and bytes.
func checkCTRPair(t *testing.T, key [32]byte, seq uint64, plain []byte) {
	t.Helper()
	got, generic := ctrPair(key)
	want := referenceCTR(key, seq, plain)
	checkCTRMatches(t, "NewCTR", &got, seq, plain, want)
	checkCTRMatches(t, "generic", &generic, seq, plain, want)
}

// TestCTRKernelEdges checks both paths against cipher.NewCTR at the
// edges of the kernel's eight-wide loop and its sub-block tail, for the
// first and last sequence numbers: empty, one byte, one block either
// side, a page either side and two pages.
func TestCTRKernelEdges(t *testing.T) {
	if !haveKernel {
		t.Log("no CTR kernel in this build: the cipher.NewCTR path is checked against the oracle")
	}
	rng := rand.New(rand.NewSource(11))
	var key [32]byte
	rng.Read(key[:])
	for _, n := range []int{0, 1, 15, 16, 17, 4095, 4096, 8192} {
		plain := make([]byte, n)
		rng.Read(plain)
		for _, seq := range []uint64{0, 7, math.MaxUint64} {
			checkCTRPair(t, key, seq, plain)
		}
	}
	// Every block count from 1 to 17 with every sub-block tail covers
	// the eight-wide loop, the one-block loop and the tail block after
	// each.
	for blocks := 0; blocks <= 17; blocks++ {
		for tail := 0; tail < BlockSize; tail++ {
			plain := make([]byte, blocks*BlockSize+tail)
			rng.Read(plain)
			checkCTRPair(t, key, uint64(blocks), plain)
		}
	}
}

// TestCTRKernelAllocatesNothing: the kernel takes the schedule by
// reference and XORs a sub-block tail in a stack block, so a page or a
// ragged packet allocates nothing. The cipher.NewCTR path allocates its
// stream state per call.
func TestCTRKernelAllocatesNothing(t *testing.T) {
	if !haveKernel {
		t.Skip("no CTR kernel in this build")
	}
	c := NewCTR([32]byte{1, 2, 3})
	for _, n := range []int{PageSize, 100} {
		buf := make([]byte, n)
		if a := testing.AllocsPerRun(100, func() { c.XORKeyStream(7, buf, buf) }); a != 0 {
			t.Errorf("%d-byte XORKeyStream allocated %v times per call, want 0", n, a)
		}
	}
}

// TestZeroCTRPanics: a CTR that holds no key (the zero value, which a
// scrubbed session resets its CTR to) refuses to produce a keystream.
func TestZeroCTRPanics(t *testing.T) {
	for _, n := range []int{0, 5, PageSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("the zero CTR XORed %d bytes", n)
				}
			}()
			var c CTR
			b := make([]byte, n)
			c.XORKeyStream(1, b, b)
		}()
	}
}

// FuzzCTRMatchesReference checks the kernel and the cipher.NewCTR path
// against the oracle for random keys, sequence numbers and lengths up to
// two pages and a sub-block tail.
func FuzzCTRMatchesReference(f *testing.F) {
	f.Add([]byte{1}, uint64(0), uint16(PageSize), int64(1))
	f.Add([]byte{2, 3}, uint64(math.MaxUint64), uint16(2*PageSize+BlockSize-1), int64(2))
	f.Add([]byte{4}, uint64(7), uint16(9*BlockSize+5), int64(3))
	f.Fuzz(func(t *testing.T, keyBytes []byte, seq uint64, n uint16, seed int64) {
		var key [32]byte
		copy(key[:], keyBytes)
		plain := make([]byte, int(n)%(2*PageSize+BlockSize))
		rand.New(rand.NewSource(seed)).Read(plain)
		checkCTRPair(t, key, seq, plain)
	})
}

// BenchmarkTransportCTR measures one 4 KiB transport packet, in place,
// on the path NewCTR picks ("kernel", the AES-NI kernel where this build
// has one) and on the cipher.NewCTR path ("generic", one stream per
// packet).
func BenchmarkTransportCTR(b *testing.B) {
	kern, generic := ctrPair([32]byte{1, 2, 3})
	for _, path := range []struct {
		name string
		c    *CTR
	}{{"kernel", &kern}, {"generic", &generic}} {
		buf := make([]byte, PageSize)
		b.Run(path.name+"/page", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(PageSize)
			for i := 0; i < b.N; i++ {
				path.c.XORKeyStream(uint64(i), buf, buf)
			}
		})
	}
}
