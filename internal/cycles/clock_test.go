package cycles

import (
	"sync"
	"testing"
)

// TestClockAttachFold covers the aggregating clock behind per-vCPU cycle
// counters: attached parts contribute to Total while live, and Fold merges
// a part back into the base without losing or double-counting cycles.
func TestClockAttachFold(t *testing.T) {
	base := &Counter{}
	k := NewClock(base)
	if k.base != base {
		t.Fatal("the clock does not wrap the base counter")
	}
	base.Charge(100)
	if k.Total() != 100 {
		t.Fatalf("Total() = %d, want 100", k.Total())
	}

	a := k.Attach()
	b := k.Attach()
	a.Charge(10)
	b.Charge(20)
	if k.Total() != 130 {
		t.Fatalf("Total() with live parts = %d, want 130", k.Total())
	}
	// The base counter alone has not moved.
	if base.Total() != 100 {
		t.Fatalf("base = %d, want 100", base.Total())
	}

	k.Fold(a)
	if base.Total() != 110 {
		t.Fatalf("base after fold = %d, want 110", base.Total())
	}
	if k.Total() != 130 {
		t.Fatalf("Total() after fold = %d, want 130 (fold must preserve the sum)", k.Total())
	}
	k.Fold(b)
	if base.Total() != 130 || k.Total() != 130 {
		t.Fatalf("after folding all parts: base=%d total=%d, want 130/130", base.Total(), k.Total())
	}

	// Folding an unknown or nil counter must not corrupt the sum.
	k.Fold(&Counter{})
	k.Fold(nil)
	if k.Total() != 130 {
		t.Fatalf("Total() after no-op folds = %d, want 130", k.Total())
	}
}

// TestClockConcurrent attaches one part per goroutine, charges from all of
// them while a reader polls Total, and checks the final sum — the exact
// traffic pattern of parallel domain runners against the machine clock.
func TestClockConcurrent(t *testing.T) {
	const (
		workers = 8
		iters   = 1000
	)
	base := &Counter{}
	k := NewClock(base)
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		// Total must be monotonic while parts only charge (no folds yet).
		defer rd.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := k.Total()
			if cur < last {
				t.Errorf("Total went backwards: %d -> %d", last, cur)
				return
			}
			last = cur
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := k.Attach()
			for i := 0; i < iters; i++ {
				c.Charge(3)
			}
			k.Fold(c)
		}()
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	want := uint64(workers * iters * 3)
	if k.Total() != want {
		t.Fatalf("Total() = %d, want %d", k.Total(), want)
	}
	if base.Total() != want {
		t.Fatalf("base after all folds = %d, want %d", base.Total(), want)
	}
}

// TestCounterAtomic pins the Counter's atomic operations used by
// concurrent charging: Sub against an earlier snapshot and Reset.
func TestCounterAtomic(t *testing.T) {
	c := &Counter{}
	c.Charge(50)
	start := c.Total()
	c.Charge(25)
	if d := c.Sub(start); d != 25 {
		t.Fatalf("Sub = %d, want 25", d)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatalf("Reset left %d", c.Total())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Charge(1)
			}
		}()
	}
	wg.Wait()
	if c.Total() != 4000 {
		t.Fatalf("concurrent charges lost: %d, want 4000", c.Total())
	}
}
