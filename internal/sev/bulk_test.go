package sev

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fidelius/internal/hw"
)

// twinContexts builds two firmware contexts with identical Kvek,
// transport keys and lifecycle state, so one N-page command on the first
// can be compared byte for byte with N one-page commands on the second.
func twinContexts(t *testing.T, f *Firmware, state State) (*Context, *Context, Handle, Handle) {
	t.Helper()
	h1, err := f.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := f.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := f.ctxs[h1], f.ctxs[h2]
	c2.kvek = c1.kvek
	c2.cipher = c1.cipher
	tk := TransportKeys{}
	copy(tk.TEK[:], bytes.Repeat([]byte{0x5a}, 32))
	copy(tk.TIK[:], bytes.Repeat([]byte{0xa5}, 32))
	c1.setTransport(tk)
	c2.setTransport(tk)
	c1.state, c2.state = state, state
	return c1, c2, h1, h2
}

func fillPages(t *testing.T, ctl *hw.Controller, pfns []hw.PFN, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var page [hw.PageSize]byte
	for _, pfn := range pfns {
		rng.Read(page[:])
		if err := ctl.Mem.WriteRaw(pfn.Addr(), page[:]); err != nil {
			t.Fatal(err)
		}
	}
}

func writePages(t *testing.T, ctl *hw.Controller, pfns []hw.PFN, pages [][]byte) {
	t.Helper()
	for i, pfn := range pfns {
		if err := ctl.Mem.WriteRaw(pfn.Addr(), pages[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func zeroPages(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, hw.PageSize)
	}
	return out
}

func snapshotPages(t *testing.T, ctl *hw.Controller, pfns []hw.PFN) [][]byte {
	t.Helper()
	out := make([][]byte, len(pfns))
	for i, pfn := range pfns {
		out[i] = make([]byte, hw.PageSize)
		if err := ctl.Mem.ReadRaw(pfn.Addr(), out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func assertPagesEqual(t *testing.T, ctl *hw.Controller, pfns []hw.PFN, want [][]byte, after string) {
	t.Helper()
	for i, got := range snapshotPages(t, ctl, pfns) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("page %d: DRAM bytes after %s differ from the expected image", i, after)
		}
	}
}

// forEachPoolWidth runs body with the firmware pool at width 1, where a
// batch runs inline, and at width 4, where it fans out across workers.
// A one-page call always runs inline, so the one-call-vs-N-calls checks
// below compare the fan-out against the serial order at width 4.
func forEachPoolWidth(t *testing.T, body func(t *testing.T, f *Firmware, ctl *hw.Controller)) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			f, ctl := newFW(t, 16)
			f.Pool().SetWidth(w)
			body(t, f, ctl)
		})
	}
}

func TestSendUpdatePagesParallelWidths(t *testing.T) {
	forEachPoolWidth(t, func(t *testing.T, f *Firmware, ctl *hw.Controller) {
		c1, c2, h1, h2 := twinContexts(t, f, StateSending)
		pfns := []hw.PFN{2, 3, 5, 7, 11}
		fillPages(t, ctl, pfns, 77)

		batch, err := f.SendUpdatePages(h1, pfns, slab(len(pfns)))
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(pfns) {
			t.Fatalf("batch produced %d packets for %d pages", len(batch), len(pfns))
		}
		for i, pfn := range pfns {
			one, err := f.SendUpdatePages(h2, []hw.PFN{pfn}, slab(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(one) != 1 {
				t.Fatalf("one-page call produced %d packets", len(one))
			}
			if one[0].Seq != uint64(i) || batch[i].Seq != uint64(i) {
				t.Fatalf("packet %d: seq batch=%d one-page=%d", i, batch[i].Seq, one[0].Seq)
			}
			if !bytes.Equal(one[0].Data, batch[i].Data) {
				t.Fatalf("packet %d: one-page ciphertext diverges from the batch", i)
			}
			if one[0].Tag != batch[i].Tag {
				t.Fatalf("packet %d: one-page tag diverges from the batch", i)
			}
		}
		if c1.measure != c2.measure {
			t.Fatal("one-page send measurement diverges from the batch")
		}
		if c1.seq != c2.seq || c1.seq != uint64(len(pfns)) {
			t.Fatalf("sequence counters: batch %d, one-page %d, want %d", c1.seq, c2.seq, len(pfns))
		}
	})
}

func TestReceiveUpdatePagesParallelWidths(t *testing.T) {
	forEachPoolWidth(t, func(t *testing.T, f *Firmware, ctl *hw.Controller) {
		_, _, sh, _ := twinContexts(t, f, StateSending)
		pfns := []hw.PFN{4, 6, 9, 10}
		fillPages(t, ctl, pfns, 13)
		pkts, err := f.SendUpdatePages(sh, pfns, slab(len(pfns)))
		if err != nil {
			t.Fatal(err)
		}

		// The twins share the sender's transport keys and a Kvek, so the
		// re-encrypted pages are comparable.
		r1, r2, rh1, rh2 := twinContexts(t, f, StateReceiving)
		zeros := zeroPages(len(pfns))
		writePages(t, ctl, pfns, zeros)
		if err := f.ReceiveUpdatePages(rh1, pfns, pkts); err != nil {
			t.Fatal(err)
		}
		want := snapshotPages(t, ctl, pfns)

		writePages(t, ctl, pfns, zeros)
		for i, pfn := range pfns {
			if err := f.ReceiveUpdatePages(rh2, []hw.PFN{pfn}, pkts[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
		assertPagesEqual(t, ctl, pfns, want, "one-page receives")
		if r1.measure != r2.measure {
			t.Fatal("one-page receive measurement diverges from the batch")
		}
		if r1.seq != r2.seq || r1.seq != uint64(len(pfns)) {
			t.Fatalf("sequence counters: batch %d, one-page %d, want %d", r1.seq, r2.seq, len(pfns))
		}

		// A replayed batch fails the sequence check before any page is
		// committed.
		writePages(t, ctl, pfns, zeros)
		if err := f.ReceiveUpdatePages(rh1, pfns, pkts); !errors.Is(err, ErrBadSequence) {
			t.Fatalf("replayed batch: got %v, want ErrBadSequence", err)
		}
		assertPagesEqual(t, ctl, pfns, zeros, "a refused replay")
	})
}

func TestBulkStateChecks(t *testing.T) {
	f, _ := newFW(t, 8)
	h, err := f.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SendUpdatePages(h, []hw.PFN{1}, slab(1)); err == nil {
		t.Fatal("send_update_pages in launching state should fail")
	}
	if err := f.ReceiveUpdatePages(h, []hw.PFN{1}, []Packet{{}}); err == nil {
		t.Fatal("receive_update_pages in launching state should fail")
	}
}
