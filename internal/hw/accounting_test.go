package hw

import (
	"sync"
	"testing"
)

// BenchmarkControllerReadHit is the per-access cost of the memory
// system's own bookkeeping: one plaintext one-line read that hits the
// cache, issued serially from the root port.
func BenchmarkControllerReadHit(b *testing.B) {
	c := NewController(NewMemory(4), 64)
	var buf [LineSize]byte
	a := Access{PA: PageSize}
	if err := c.Read(a, buf[:]); err != nil { // fill the line
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Read(a, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerWriteHit is the store-side twin: one plaintext
// one-line write to a cached line (write-through to DRAM).
func BenchmarkControllerWriteHit(b *testing.B) {
	c := NewController(NewMemory(4), 64)
	var buf [LineSize]byte
	a := Access{PA: PageSize}
	if err := c.Read(a, buf[:]); err != nil { // fill the line
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(a, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncryptedReadMissAllocsNothing guards the encrypted line fill: on
// the AES-NI kernel path the missed line is decrypted in the stack
// buffer it was filled into, so an encrypted cache miss allocates
// nothing. The Go XEX loop (other hosts, -race builds) still decrypts a
// heap copy.
func TestEncryptedReadMissAllocsNothing(t *testing.T) {
	if !haveKernel {
		t.Skip("no AES-NI XEX kernel in this build or on this CPU")
	}
	c := testController(t, 4, 32)
	installKey(t, c, 1, 7)
	a := Access{PA: PageSize + 8, Encrypted: true, ASID: 1}
	buf := make([]byte, 16)
	_, missesBefore := c.Cache.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		c.Cache.Invalidate(a.PA, len(buf))
		if err := c.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	})
	if _, misses := c.Cache.Stats(); misses-missesBefore < 100 {
		t.Fatalf("%d cache misses, want every read to miss", misses-missesBefore)
	}
	if allocs != 0 {
		t.Fatalf("an encrypted cache-miss Read allocated %v times, want 0", allocs)
	}
}

// accessOp is one transaction of the conservation test's fixed mix.
type accessOp struct {
	write bool
	off   PhysAddr // from the start of the issuing port's region
	n     int
}

// accountingMix spans sets, lines and page boundaries: single bytes,
// line-straddling runs, whole lines, a run across the region's two pages
// and a whole page.
var accountingMix = []accessOp{
	{false, 0, 1},
	{true, 60, 8},
	{false, 60, 8},
	{true, 64, LineSize},
	{false, 64, LineSize},
	{false, 100, 300},
	{true, PageSize - 40, 100},
	{false, PageSize - 40, 100},
	{true, 0, PageSize},
	{false, 0, PageSize},
	{false, 3*LineSize + 7, 2*LineSize + 3},
}

// TestControllerConcurrentAccountingConserved issues a known mix of reads
// and writes from several per-vCPU views and a detached port at once,
// while a reader keeps sweeping the registry, and then checks that the
// per-set accounting lost and duplicated nothing: mem.reads, read_bytes,
// writes and write_bytes equal the issued totals, and cache.hits plus
// cache.misses equal the lines the reads touched. A capacity-0 cache,
// which holds no lines, must count the same transactions.
func TestControllerConcurrentAccountingConserved(t *testing.T) {
	const (
		ports  = 5
		rounds = 50
		pages  = 2 // per port
	)
	var reads, readBytes, readLines, writes, writeBytes uint64
	for _, op := range accountingMix {
		if op.write {
			writes++
			writeBytes += uint64(op.n)
		} else {
			reads++
			readBytes += uint64(op.n)
			readLines += touchedLines(op.off, op.n)
		}
	}
	for _, capacity := range []int{128, 0} {
		root := NewController(NewMemory(ports*pages), capacity)
		for p := 0; p < ports; p++ {
			installKey(t, root, ASID(p+1), byte(p))
		}
		stop := make(chan struct{})
		swept := make(chan struct{})
		go func() { // registry reader racing the accesses
			defer close(swept)
			for {
				select {
				case <-stop:
					return
				default:
					root.Telem.Reg.Snapshot()
				}
			}
		}()
		var wg sync.WaitGroup
		for p := 0; p < ports; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				port := root.View()
				if p == ports-1 {
					port = root.Detached()
				}
				defer port.Release()
				region := PFN(p * pages).Addr()
				buf := make([]byte, PageSize)
				for r := 0; r < rounds; r++ {
					for _, op := range accountingMix {
						a := Access{PA: region + op.off, Encrypted: (p+r)%2 == 0, ASID: ASID(p + 1)}
						var err error
						if op.write {
							err = port.Write(a, buf[:op.n])
						} else {
							err = port.Read(a, buf[:op.n])
						}
						if err != nil {
							t.Errorf("port %d: %+v: %v", p, op, err)
							return
						}
					}
				}
			}(p)
		}
		wg.Wait()
		close(stop)
		<-swept
		g := root.Telem.Reg.Snapshot().Gauges
		issued := uint64(ports * rounds)
		for name, want := range map[string]uint64{
			"mem.reads":       issued * reads,
			"mem.read_bytes":  issued * readBytes,
			"mem.writes":      issued * writes,
			"mem.write_bytes": issued * writeBytes,
		} {
			if g[name] != want {
				t.Errorf("capacity %d: %s = %d, want %d", capacity, name, g[name], want)
			}
		}
		if got, want := g["cache.hits"]+g["cache.misses"], issued*readLines; got != want {
			t.Errorf("capacity %d: cache.hits+cache.misses = %d, want %d (one per line read)",
				capacity, got, want)
		}
		if capacity == 0 && g["cache.hits"] != 0 {
			t.Errorf("capacity-0 cache counted %d hits", g["cache.hits"])
		}
	}
}

// TestDetachedPortChargesNothing pins the detached port: it has no cycle
// counter, so its accesses move no clock, while its transactions still
// count in the shared stats.
func TestDetachedPortChargesNothing(t *testing.T) {
	c := testController(t, 4, 64)
	d := c.Detached()
	if d.Cycles != nil {
		t.Fatal("a detached port has a cycle counter")
	}
	before := c.Now()
	buf := make([]byte, 100)
	if err := d.Write(Access{PA: 40}, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(Access{PA: 40}, buf); err != nil {
		t.Fatal(err)
	}
	if after := c.Now(); after != before {
		t.Fatalf("detached accesses moved the clock %d -> %d", before, after)
	}
	g := c.Telem.Reg.Snapshot().Gauges
	if g["mem.reads"] != 1 || g["mem.writes"] != 1 || g["mem.read_bytes"] != 100 {
		t.Fatalf("detached transactions not counted: %v", g)
	}
}
