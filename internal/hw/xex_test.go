package hw

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestLineXEXAllocatesNothing guards the line XEX loop: the tweak is
// computed inside the caller's block, so no scratch buffer reaches the
// cipher.Block interface and moves to the heap.
func TestLineXEXAllocatesNothing(t *testing.T) {
	s, err := NewPageCipher(Key{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineSize)
	for name, f := range map[string]func(PhysAddr, []byte){
		"EncryptLine": s.EncryptLine,
		"DecryptLine": s.DecryptLine,
	} {
		if n := testing.AllocsPerRun(100, func() { f(PageSize, buf) }); n != 0 {
			t.Errorf("%s allocated %v times per call, want 0", name, n)
		}
	}
}

// xexPair returns the XEX NewXEX builds for key (the kernel, where this
// build and CPU have one) and the Go loop over the same subkeys, the
// oracle the kernel is checked against.
func xexPair(key [32]byte) (got, ref *XEX) {
	got = NewXEX(key, "data:", "tweak:")
	ref = new(XEX)
	ref.derive(key, "data:", "tweak:", false)
	return got, ref
}

// checkXEXMatches runs both directions of got and ref over the same
// bytes and fails on the first difference.
func checkXEXMatches(t *testing.T, got, ref *XEX, pos uint64, plain []byte) {
	t.Helper()
	g := append([]byte(nil), plain...)
	r := append([]byte(nil), plain...)
	got.EncryptLine(pos, g)
	ref.EncryptLine(pos, r)
	if !bytes.Equal(g, r) {
		t.Fatalf("EncryptLine(pos=%#x, n=%d) differs from the Go loop", pos, len(plain))
	}
	g = append(g[:0], plain...)
	r = append(r[:0], plain...)
	got.DecryptLine(pos, g)
	ref.DecryptLine(pos, r)
	if !bytes.Equal(g, r) {
		t.Fatalf("DecryptLine(pos=%#x, n=%d) differs from the Go loop", pos, len(plain))
	}
	ref.EncryptLine(pos, r)
	if !bytes.Equal(r, plain) {
		t.Fatalf("EncryptLine(pos=%#x, n=%d) does not invert DecryptLine", pos, len(plain))
	}
}

// TestXEXKernelEdges checks the kernel against the Go loop at the edges
// of its four-wide loop: every block count from 1 to 7 with every
// sub-block tail, which must come back untouched, and positions within
// 64 bytes of 2^64, where the tweak input wraps.
func TestXEXKernelEdges(t *testing.T) {
	if !haveKernel {
		t.Log("no XEX kernel in this build: the Go loop is checked against itself")
	}
	rng := rand.New(rand.NewSource(7))
	var key [32]byte
	rng.Read(key[:])
	got, ref := xexPair(key)
	for blocks := 1; blocks <= 7; blocks++ {
		for tail := 0; tail < BlockSize; tail++ {
			plain := make([]byte, blocks*BlockSize+tail)
			rng.Read(plain)
			for _, pos := range []uint64{0, PageSize, math.MaxUint64 - 63, math.MaxUint64 - 15} {
				checkXEXMatches(t, got, ref, pos, plain)
				b := append([]byte(nil), plain...)
				got.EncryptLine(pos, b)
				if !bytes.Equal(b[blocks*BlockSize:], plain[blocks*BlockSize:]) {
					t.Fatalf("EncryptLine(n=%d) changed the %d trailing bytes", len(plain), tail)
				}
			}
		}
	}
	// At the wrap, block i's tweak input is pos+16i mod 2^64: the block
	// after 2^64-16 is tweaked like the block at 0.
	b := make([]byte, 2*BlockSize)
	got.EncryptLine(math.MaxUint64-15, b)
	z := make([]byte, BlockSize)
	got.EncryptLine(0, z)
	if !bytes.Equal(b[BlockSize:], z) {
		t.Fatal("the tweak input does not wrap at 2^64")
	}
}

// FuzzXEXMatchesReference checks the kernel against the Go loop for
// random keys, 16-aligned positions and lengths up to two pages and a
// sub-block tail, in both directions.
func FuzzXEXMatchesReference(f *testing.F) {
	f.Add([]byte{1}, uint64(0), uint16(LineSize), int64(1))
	f.Add([]byte{2, 3}, uint64(PageSize), uint16(PageSize), int64(2))
	f.Add([]byte{4}, uint64(math.MaxUint64-47), uint16(7*BlockSize+5), int64(3))
	f.Fuzz(func(t *testing.T, keyBytes []byte, pos uint64, n uint16, seed int64) {
		var key [32]byte
		copy(key[:], keyBytes)
		got, ref := xexPair(key)
		plain := make([]byte, int(n)%(2*PageSize+BlockSize))
		rand.New(rand.NewSource(seed)).Read(plain)
		checkXEXMatches(t, got, ref, pos&^(BlockSize-1), plain)
	})
}

// BenchmarkXEXLine measures the line XEX loop on one cache line, one
// disk sector and one page, in both directions, on the path NewXEX
// picks ("kernel", the AES-NI kernel where this build has one) and on
// the Go loop ("generic").
func BenchmarkXEXLine(b *testing.B) {
	kern, generic := xexPair([32]byte{1, 2, 3})
	for _, path := range []struct {
		name string
		x    *XEX
	}{{"kernel", kern}, {"generic", generic}} {
		for _, size := range []struct {
			name string
			n    int
		}{{"line", LineSize}, {"sector", 512}, {"page", PageSize}} {
			buf := make([]byte, size.n)
			for _, dir := range []struct {
				name string
				f    func(uint64, []byte)
			}{{"enc", path.x.EncryptLine}, {"dec", path.x.DecryptLine}} {
				b.Run(path.name+"/"+dir.name+"/"+size.name, func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(int64(size.n))
					for i := 0; i < b.N; i++ {
						dir.f(PageSize, buf)
					}
				})
			}
		}
	}
}
