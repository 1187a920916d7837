package cycles

import (
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Total() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Charge(100)
	c.Charge(23)
	if c.Total() != 123 {
		t.Fatalf("total %d", c.Total())
	}
	if c.Sub(100) != 23 {
		t.Fatalf("sub %d", c.Sub(100))
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("Reset")
	}
}

func TestPropertyCounterAccumulates(t *testing.T) {
	f := func(charges []uint16) bool {
		var c Counter
		var want uint64
		for _, ch := range charges {
			c.Charge(uint64(ch))
			want += uint64(ch)
		}
		return c.Total() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPaperAnchoredConstants pins the cost model to the paper's published
// micro-benchmark measurements (Section 7.2): if anyone retunes the model,
// this test forces the gate costs to stay at the measured values.
func TestPaperAnchoredConstants(t *testing.T) {
	if Gate1 != 306 {
		t.Errorf("Gate1 = %d, paper measured 306", Gate1)
	}
	if Gate2 != 16 {
		t.Errorf("Gate2 = %d, paper measured 16", Gate2)
	}
	if Gate3 != 339 {
		t.Errorf("Gate3 = %d, paper measured 339", Gate3)
	}
	if ShadowCheck != 661 {
		t.Errorf("ShadowCheck = %d, paper measured 661", ShadowCheck)
	}
	if TLBFlushEntry != 128 {
		t.Errorf("TLBFlushEntry = %d, paper measured 128", TLBFlushEntry)
	}
	if PTWrite >= 3 {
		t.Errorf("PTWrite = %d, paper measured <2", PTWrite)
	}
	// The I/O-encryption throughput ratios of micro-benchmark 3.
	aesni := 100 * float64(EncAESNI) / float64(CopyBlock)
	if aesni < 10.5 || aesni > 12.5 {
		t.Errorf("AES-NI model %.2f%%, paper 11.49%%", aesni)
	}
	sme := 100 * float64(EncSEVTput) / float64(CopyBlock)
	if sme < 7.7 || sme > 9.7 {
		t.Errorf("SME model %.2f%%, paper 8.69%%", sme)
	}
	if float64(EncSoftware)/float64(CopyBlock) < 20 {
		t.Errorf("software model below the paper's >20x")
	}
}
