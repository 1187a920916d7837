package hw

import "testing"

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

// BenchmarkXEXLine measures the line XEX loop on one cache line and on
// one page, in both directions.
func BenchmarkXEXLine(b *testing.B) {
	s, err := NewPageCipher(Key{1, 2, 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []struct {
		name string
		n    int
	}{{"line", LineSize}, {"page", PageSize}} {
		buf := make([]byte, size.n)
		for _, dir := range []struct {
			name string
			f    func(PhysAddr, []byte)
		}{{"enc", s.EncryptLine}, {"dec", s.DecryptLine}} {
			b.Run(dir.name+"/"+size.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(size.n))
				for i := 0; i < b.N; i++ {
					dir.f(PageSize, buf)
				}
			})
		}
	}
}
