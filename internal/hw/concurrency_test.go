package hw

import (
	"errors"
	"sync"
	"testing"
)

// linePat fills a cache line with a pattern derived from its address, so
// any cross-line smearing under concurrency is detectable.
func linePat(base PhysAddr) [LineSize]byte {
	var l [LineSize]byte
	for i := range l {
		l[i] = byte(uint64(base)>>6) ^ byte(i*13)
	}
	return l
}

// TestCacheConcurrentOps drives every cache entry point from many
// goroutines over deliberately overlapping sets. Each worker owns a
// disjoint tag range but aliases into the same sets as every other worker,
// so per-set locking is exercised on both contention and eviction. The
// invariant: any hit returns exactly the line's own pattern — lines may be
// evicted or invalidated at any time, but never torn or mixed.
func TestCacheConcurrentOps(t *testing.T) {
	geoms := []struct {
		name           string
		capacity, ways int
	}{
		{"direct-64", 64, 1},
		{"assoc-256x8", 256, 8},
		{"tiny-8x2", 8, 2},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			c := NewCacheWays(g.capacity, g.ways)
			sets := g.capacity / g.ways
			const workers = 8
			const iters = 400
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					stride := PhysAddr(sets * LineSize)
					for i := 0; i < iters; i++ {
						// Alias into set (i % sets) with a per-worker tag.
						base := PhysAddr(i%sets)*LineSize + PhysAddr(w+1)*stride
						line := linePat(base)
						switch i % 5 {
						case 0:
							c.Fill(base, &line)
						case 1:
							var dst [LineSize]byte
							if c.ReadAt(base, dst[:]) && dst != line {
								t.Errorf("worker %d: torn line at %#x", w, base)
								return
							}
						case 2:
							c.WriteAt(base, line[:LineSize/2])
						case 3:
							c.Invalidate(base, LineSize)
						case 4:
							// Partial read at an offset inside the line.
							var dst [LineSize / 4]byte
							off := PhysAddr(LineSize / 2)
							if c.ReadAt(base+off, dst[:]) {
								for j, b := range dst {
									if b != line[int(off)+j] {
										t.Errorf("worker %d: torn partial read at %#x", w, base)
										return
									}
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			// Post-run sanity: the structure is still coherent.
			if c.Len() < 0 || c.Len() > g.capacity {
				t.Fatalf("cache claims %d live lines, capacity %d", c.Len(), g.capacity)
			}
			c.Flush()
			if c.Len() != 0 {
				t.Fatalf("flush left %d lines", c.Len())
			}
		})
	}
}

// TestEngineConcurrentSlots races key install/uninstall against encrypting
// readers: a slot churned by one goroutine while others run line crypto on
// their own (stable) ASIDs. Readers of the churned ASID must see either a
// working slot or ErrNoKey — never a torn key.
func TestEngineConcurrentSlots(t *testing.T) {
	e := NewEngine()
	stable := []ASID{1, 2, 3}
	for _, a := range stable {
		if err := e.Install(a, Key{byte(a)}); err != nil {
			t.Fatal(err)
		}
	}
	const churnASID = ASID(7)
	churnKey := Key{77}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				if err := e.Install(churnASID, churnKey); err != nil {
					t.Errorf("install: %v", err)
					return
				}
			} else {
				e.Uninstall(churnASID)
			}
		}
	}()
	for _, a := range stable {
		wg.Add(1)
		go func(a ASID) {
			defer wg.Done()
			var line [LineSize]byte
			want := linePat(0)
			for i := 0; i < 2000; i++ {
				pa := PhysAddr(i%64) * LineSize
				line = linePat(0)
				s, err := e.Slot(a)
				if err != nil {
					t.Errorf("asid %d encrypt: %v", a, err)
					return
				}
				s.EncryptLine(pa, line[:])
				if s, err = e.Slot(a); err != nil {
					t.Errorf("asid %d decrypt: %v", a, err)
					return
				}
				s.DecryptLine(pa, line[:])
				if line != want {
					t.Errorf("asid %d: crypto round trip corrupted line", a)
					return
				}
			}
		}(a)
	}
	// A reader on the churned ASID tolerates ErrNoKey but nothing else,
	// and a successful round trip must still be correct.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			line := linePat(0)
			s, err := e.Slot(churnASID)
			if err != nil {
				if !errors.Is(err, ErrNoKey) {
					t.Errorf("churned asid: %v", err)
					return
				}
				continue
			}
			s.EncryptLine(0, line[:])
			// The slot may be replaced between the two lookups; a reinstall
			// writes the same key, so decrypt either works or faults.
			if s, err = e.Slot(churnASID); err != nil {
				if !errors.Is(err, ErrNoKey) {
					t.Errorf("churned asid decrypt: %v", err)
				}
				continue
			}
			s.DecryptLine(0, line[:])
			if line != linePat(0) {
				t.Error("churned asid: torn key material")
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-churnDone
}

// TestControllerConcurrentViews runs full encrypted read/write traffic
// from per-vCPU controller views over disjoint pages — the memory
// subsystem configuration ScheduleParallel creates — and then checks both
// the data and the shared transaction accounting.
func TestControllerConcurrentViews(t *testing.T) {
	const (
		nViews = 6
		pages  = 2 // per view
		rounds = 25
	)
	root := NewController(NewMemory(nViews*pages+4), 128)
	root.Integ = NewIntegrity(root.Mem, [32]byte{5})
	for v := 0; v < nViews; v++ {
		if err := root.Eng.Install(ASID(v+1), Key{byte(v + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for v := 0; v < nViews; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			ctl := root.View()
			defer ctl.Release()
			asid := ASID(v + 1)
			enc := v%2 == 0
			basePFN := PFN(v * pages)
			if enc {
				// Half the views also run under integrity protection.
				if err := ctl.Integ.Protect(basePFN); err != nil {
					t.Error(err)
					return
				}
			}
			buf := make([]byte, PageSize)
			got := make([]byte, PageSize)
			for r := 0; r < rounds; r++ {
				for p := 0; p < pages; p++ {
					pa := (basePFN + PFN(p)).Addr()
					for i := range buf {
						buf[i] = byte(v*31 + p*17 + r*7 + i)
					}
					a := Access{PA: pa, Encrypted: enc, ASID: asid}
					if err := ctl.Write(a, buf); err != nil {
						t.Errorf("view %d write: %v", v, err)
						return
					}
					if err := ctl.Read(a, got); err != nil {
						t.Errorf("view %d read: %v", v, err)
						return
					}
					for i := range got {
						if got[i] != buf[i] {
							t.Errorf("view %d page %d round %d: byte %d got %#x want %#x",
								v, p, r, i, got[i], buf[i])
							return
						}
					}
				}
			}
		}(v)
	}
	wg.Wait()
	// Shared accounting: every view's transactions landed in the one
	// stats block, and every private cycle counter folded into the clock.
	snap := root.Telem.Reg.Snapshot()
	wantOps := uint64(nViews * pages * rounds)
	if snap.Gauges["mem.writes"] != wantOps || snap.Gauges["mem.reads"] != wantOps {
		t.Errorf("shared stats lost transactions: reads=%d writes=%d want %d",
			snap.Gauges["mem.reads"], snap.Gauges["mem.writes"], wantOps)
	}
	if want := wantOps * PageSize; snap.Gauges["mem.write_bytes"] != want {
		t.Errorf("write bytes %d, want %d", snap.Gauges["mem.write_bytes"], want)
	}
	if root.Clock.Total() != root.Cycles.Total() {
		t.Errorf("released views left cycles outside the base counter: clock %d base %d",
			root.Clock.Total(), root.Cycles.Total())
	}
	if root.Cycles.Total() == 0 {
		t.Error("no cycles folded back from views")
	}
}
