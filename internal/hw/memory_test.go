package hw

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// backed reports whether frame f has been given its backing array.
func (m *Memory) backed(f PFN) bool { return m.frames[f].Load() != nil }

// noPanic runs fn and turns a panic into a test failure, so one broken
// case reports instead of killing the whole test binary.
func noPanic(t *testing.T, name string, fn func() error) error {
	t.Helper()
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s panicked: %v", name, r)
				err = ErrOutOfRange
			}
		}()
		err = fn()
	}()
	return err
}

// TestAccessNearTopOfAddressSpace pins the bounds-check wrap fix: the
// check used to add pa and n in 64 bits, so an access ending past 2^64
// wrapped to a small end address, passed, and then panicked indexing DRAM.
// The controller reaches the same check with hypervisor-supplied
// addresses (DMA, blkio), so every entry point must return ErrOutOfRange.
func TestAccessNearTopOfAddressSpace(t *testing.T) {
	top := PhysAddr(^uint64(0))
	cases := []struct {
		pa PhysAddr
		n  int
	}{
		{top, 1},
		{top, 2},
		{top - 7, 16},
		{top - LineSize + 1, 2 * LineSize},
		{4 * PageSize, 1}, // one past the end, no wrap
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("pa=%#x,n=%d", uint64(tc.pa), tc.n), func(t *testing.T) {
			c := NewController(NewMemory(4), 16)
			installKey(t, c, 1, 7)
			buf := make([]byte, tc.n)
			ops := map[string]func() error{
				"ReadRaw":  func() error { return c.Mem.ReadRaw(tc.pa, buf) },
				"WriteRaw": func() error { return c.Mem.WriteRaw(tc.pa, buf) },
				"Read":     func() error { return c.Read(Access{PA: tc.pa}, buf) },
				"Write":    func() error { return c.Write(Access{PA: tc.pa}, buf) },
				"ReadEnc":  func() error { return c.Read(Access{PA: tc.pa, Encrypted: true, ASID: 1}, buf) },
				"WriteEnc": func() error { return c.Write(Access{PA: tc.pa, Encrypted: true, ASID: 1}, buf) },
			}
			if tc.n == 1 {
				ops["FlipBit"] = func() error { return c.Mem.FlipBit(tc.pa, 3) }
			}
			for name, op := range ops {
				if err := noPanic(t, name, op); !errors.Is(err, ErrOutOfRange) {
					t.Errorf("%s: got %v, want ErrOutOfRange", name, err)
				}
			}
		})
	}
}

func TestUnbackedFrameReadsZero(t *testing.T) {
	m := NewMemory(4)
	buf := bytes.Repeat([]byte{0xAA}, int(m.Size()))
	if err := m.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, m.Size())) {
		t.Fatal("never-written DRAM did not read as zeros")
	}
	line := bytes.Repeat([]byte{0x55}, LineSize)
	if err := m.ReadRaw(PFN(2).Addr()+LineSize, line); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, make([]byte, LineSize)) {
		t.Fatal("single-frame read of an unbacked frame did not clear the buffer")
	}
	for f := PFN(0); f < 4; f++ {
		if m.backed(f) {
			t.Fatalf("a read backed frame %d", f)
		}
	}
}

// TestSpanBackedAndUnbacked drives raw accesses across frame boundaries,
// in both backing orders, against a flat reference array.
func TestSpanBackedAndUnbacked(t *testing.T) {
	m := NewMemory(4)
	ref := make([]byte, m.Size())
	write := func(pa PhysAddr, data []byte) {
		t.Helper()
		if err := m.WriteRaw(pa, data); err != nil {
			t.Fatal(err)
		}
		copy(ref[pa:], data)
	}
	check := func(pa PhysAddr, n int) {
		t.Helper()
		got := bytes.Repeat([]byte{0xEE}, n)
		if err := m.ReadRaw(pa, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref[pa:int(pa)+n]) {
			t.Fatalf("ReadRaw(%#x, %d) disagrees with the flat reference", pa, n)
		}
	}

	// Backed frame 1 followed by unbacked frame 2.
	write(PFN(1).Addr()+PageSize-8, []byte("backed.."))
	if !m.backed(1) || m.backed(2) {
		t.Fatal("a write inside frame 1 must back exactly frame 1")
	}
	check(PFN(1).Addr()+PageSize-8, 24)
	// Unbacked frame 0 followed by backed frame 1.
	check(PFN(1).Addr()-16, 32)
	// A write spanning from backed frame 1 into unbacked frame 2 backs it.
	write(PFN(2).Addr()-4, []byte("straddle"))
	if !m.backed(2) || m.backed(3) {
		t.Fatal("a straddling write must back exactly the frames it touches")
	}
	check(0, int(m.Size()))

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		pa := PhysAddr(rng.Intn(int(m.Size())))
		n := rng.Intn(int(m.Size()-uint64(pa)) + 1)
		if n > 2*PageSize {
			n = rng.Intn(2 * PageSize)
		}
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			write(pa, data)
		} else {
			check(pa, n)
		}
	}
	check(0, int(m.Size()))
}

func TestFlipBitUnbackedFrame(t *testing.T) {
	m := NewMemory(2)
	pa := PFN(1).Addr() + 100
	if err := m.FlipBit(pa, 5); err != nil {
		t.Fatal(err)
	}
	if !m.backed(1) || m.backed(0) {
		t.Fatal("FlipBit must back exactly the frame it disturbs")
	}
	page := make([]byte, PageSize)
	if err := m.ReadRaw(PFN(1).Addr(), page); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	want[100] = 1 << 5
	if !bytes.Equal(page, want) {
		t.Fatal("FlipBit on a zero frame must set exactly one bit")
	}
	if err := m.FlipBit(pa, 5+8); err != nil { // bit index is taken mod 8
		t.Fatal(err)
	}
	if err := m.ReadRaw(pa, page[:1]); err != nil || page[0] != 0 {
		t.Fatalf("second flip: byte %#x, err %v; want 0", page[0], err)
	}
}

func TestInjectFaultFiresOnce(t *testing.T) {
	injected := errors.New("simulated DRAM fault")
	m := NewMemory(4)
	pa := PFN(2).Addr()
	buf := make([]byte, LineSize)

	m.InjectFault(pa, LineSize, injected)
	if err := m.ReadRaw(PFN(1).Addr(), buf); err != nil {
		t.Fatalf("non-overlapping read consumed the fault: %v", err)
	}
	if err := m.WriteRaw(pa+LineSize/2, buf); !errors.Is(err, injected) {
		t.Fatalf("overlapping write: got %v, want the injected fault", err)
	}
	if m.backed(2) {
		t.Fatal("a faulted write must not touch (or back) its frame")
	}
	if err := m.WriteRaw(pa, buf); err != nil {
		t.Fatalf("fault fired twice: %v", err)
	}

	m.InjectFault(pa, 1, injected)
	if err := m.ReadRaw(pa-1, buf[:2]); !errors.Is(err, injected) {
		t.Fatalf("overlapping read: got %v, want the injected fault", err)
	}
	if err := m.ReadRaw(pa-1, buf[:2]); err != nil {
		t.Fatalf("fault fired twice: %v", err)
	}
}

func TestNewMemoryBytesClampsTail(t *testing.T) {
	const size = 2*PageSize + 100
	m := NewMemoryBytes(size)
	if m.Pages() != 2 || m.Size() != size {
		t.Fatalf("Pages %d Size %d, want 2 and %d", m.Pages(), m.Size(), size)
	}
	tail := bytes.Repeat([]byte{0x5A}, 100)
	if err := m.WriteRaw(size-100, tail); err != nil {
		t.Fatalf("write of the partial tail frame: %v", err)
	}
	if err := m.WriteRaw(size-100, append(tail, 0)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past the tail: got %v, want ErrOutOfRange", err)
	}
	got := make([]byte, 100)
	if err := m.ReadRaw(size-100, got); err != nil || !bytes.Equal(got, tail) {
		t.Fatalf("tail read back %x, err %v", got, err)
	}
	if err := m.ReadRaw(size-1, make([]byte, 2)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read past the tail: got %v, want ErrOutOfRange", err)
	}
	if err := m.ReadRaw(size, nil); err != nil {
		t.Fatalf("empty read at the end: %v", err)
	}
	if err := m.FlipBit(size-1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.FlipBit(size, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("flip past the tail: got %v, want ErrOutOfRange", err)
	}
	// A page-multiple memory: an empty access at Size names a frame one
	// past the last and must not index it.
	p := NewMemory(1)
	if err := p.ReadRaw(PageSize, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteRaw(PageSize, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFirstWrite races first writes into unbacked frames: 8
// writers sweep the same frames in step, each storing its own line, so
// every frame's install is contended. All writers must land in the single
// array the CAS installs; a store into an array that lost the race is a
// lost byte.
func TestConcurrentFirstWrite(t *testing.T) {
	const writers, frames = 8, 256
	for round := 0; round < 8; round++ {
		m := NewMemory(frames)
		var start, done sync.WaitGroup
		start.Add(1)
		for w := 0; w < writers; w++ {
			done.Add(1)
			go func(w int) {
				defer done.Done()
				line := bytes.Repeat([]byte{byte(w + 1)}, LineSize)
				start.Wait()
				for f := PFN(0); f < frames; f++ {
					if err := m.WriteRaw(f.Addr()+PhysAddr(w*LineSize), line); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		start.Done()
		done.Wait()
		got := make([]byte, writers*LineSize)
		for f := PFN(0); f < frames; f++ {
			if err := m.ReadRaw(f.Addr(), got); err != nil {
				t.Fatal(err)
			}
			for i, b := range got {
				if want := byte(i/LineSize + 1); b != want {
					t.Fatalf("round %d frame %d: byte %d = %d, want %d (a first write was lost)",
						round, f, i, b, want)
				}
			}
		}
	}
}
