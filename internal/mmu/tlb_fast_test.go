package mmu

import "testing"

// TestTLBLastEntryCoherent exercises the one-entry last-translation cache
// in front of the map: repeated lookups of the same page must hit without
// going stale across Insert, FlushEntry and FlushAll.
func TestTLBLastEntryCoherent(t *testing.T) {
	tlb := NewTLB()
	tr := Translation{HPA: 0x1000}
	tlb.Insert(1, 0x2000, Read, tr)

	// Back-to-back lookups of the same key: both hit, same result.
	for i := 0; i < 3; i++ {
		got, ok := tlb.Lookup(1, 0x2345, Read)
		if !ok || got.HPA != 0x1000 {
			t.Fatalf("lookup %d: ok=%v hpa=%#x", i, ok, got.HPA)
		}
	}
	if tlb.Hits != 3 || tlb.Misses != 0 {
		t.Fatalf("hits=%d misses=%d, want 3/0", tlb.Hits, tlb.Misses)
	}

	// Re-inserting the same page must update what Lookup returns.
	tlb.Insert(1, 0x2000, Read, Translation{HPA: 0x7000})
	if got, _ := tlb.Lookup(1, 0x2000, Read); got.HPA != 0x7000 {
		t.Fatalf("stale last-entry after re-insert: %#x", got.HPA)
	}

	// FlushEntry of the cached page must drop the fast path too.
	tlb.FlushEntry(1, 0x2000)
	if _, ok := tlb.Lookup(1, 0x2000, Read); ok {
		t.Fatal("last-entry survived FlushEntry")
	}

	// FlushAll must drop it.
	tlb.Insert(3, 0x9000, Execute, tr)
	tlb.FlushAll()
	if _, ok := tlb.Lookup(3, 0x9000, Execute); ok {
		t.Fatal("last-entry survived FlushAll")
	}

	// A different access type for the same page is a distinct key: the
	// fast path must not conflate them.
	tlb.Insert(4, 0xa000, Read, tr)
	if _, ok := tlb.Lookup(4, 0xa000, Write); ok {
		t.Fatal("last-entry conflated access types")
	}
}
