package xen

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"testing"
	"time"

	"fidelius/internal/hw"
)

// stressPat is the deterministic byte pattern domain id writes into work
// page gfn at offset i during round r.
func stressPat(id DomID, gfn uint64, r, i int) byte {
	return byte(uint64(id)*31 + gfn*17 + uint64(r)*7 + uint64(i))
}

// startStressGuest starts a vCPU that writes, verifies and rewrites a
// per-domain pattern across its work pages, interleaving hypercalls and
// console output so every quantum type (VMMCALL, NPF under Lazy, HLT-free
// completion) is exercised concurrently.
func startStressGuest(x *Xen, d *Domain, workGFN, workPages uint64, rounds int) {
	id := d.ID
	x.StartVCPU(d, func(g *GuestEnv) error {
		buf := make([]byte, hw.PageSize)
		for r := 0; r < rounds; r++ {
			for gfn := workGFN; gfn < workGFN+workPages; gfn++ {
				for i := range buf {
					buf[i] = stressPat(id, gfn, r, i)
				}
				if err := g.Write(gfn*hw.PageSize, buf); err != nil {
					return fmt.Errorf("dom %d write gfn %d round %d: %w", id, gfn, r, err)
				}
				if _, err := g.Hypercall(HCVoid); err != nil {
					return err
				}
			}
			for gfn := workGFN; gfn < workGFN+workPages; gfn++ {
				if err := g.Read(gfn*hw.PageSize, buf); err != nil {
					return fmt.Errorf("dom %d read gfn %d round %d: %w", id, gfn, r, err)
				}
				for i := range buf {
					if buf[i] != stressPat(id, gfn, r, i) {
						return fmt.Errorf("dom %d gfn %d round %d byte %d: got %#x want %#x",
							id, gfn, r, i, buf[i], stressPat(id, gfn, r, i))
					}
				}
			}
			if err := g.ConsolePrint(fmt.Sprintf("dom%d r%d;", id, r)); err != nil {
				return err
			}
		}
		return nil
	})
}

// verifyStressImage checks a domain's final memory image from the host
// side, through the controller with the domain's own view of its memory
// (guest key for SEV domains, plaintext otherwise).
func verifyStressImage(t *testing.T, x *Xen, d *Domain, workGFN, workPages uint64, rounds int) {
	t.Helper()
	var page [hw.PageSize]byte
	last := rounds - 1
	for gfn := workGFN; gfn < workGFN+workPages; gfn++ {
		pfn := d.Frames[gfn]
		if pfn == 0 {
			t.Errorf("dom %d: work gfn %d never backed", d.ID, gfn)
			continue
		}
		if err := x.M.Ctl.ReadPage(pfn, d.SEV, d.ASID, &page); err != nil {
			t.Fatalf("dom %d read back gfn %d: %v", d.ID, gfn, err)
		}
		for i := range page {
			if want := stressPat(d.ID, gfn, last, i); page[i] != want {
				t.Fatalf("dom %d gfn %d byte %d: got %#x want %#x", d.ID, gfn, i, page[i], want)
			}
		}
	}
}

// TestConcurrentDomains is the gate for the parallel scheduler: N domains
// with mixed encrypted/unencrypted working sets, some lazily populated,
// all running truly concurrently under -race. Each guest hammers its own
// disjoint pages through the shared cache, engine, integrity tree and
// telemetry hub; afterwards every domain's final image must be exactly
// its last-round pattern.
func TestConcurrentDomains(t *testing.T) {
	const (
		nDoms     = 8
		workGFN   = 2
		workPages = 4
		rounds    = 3
	)
	x := newXen(t)
	var doms []*Domain
	for i := 0; i < nDoms; i++ {
		cfg := DomainConfig{
			Name:     fmt.Sprintf("stress%d", i),
			MemPages: 16,
			SEV:      i%2 == 0, // mixed encrypted/unencrypted working sets
			Lazy:     i%3 == 0, // some domains fault their frames in live
		}
		d, err := x.CreateDomain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
		startStressGuest(x, d, workGFN, workPages, rounds)
	}
	errs := x.ScheduleParallel(doms, 4)
	if len(errs) != 0 {
		t.Fatalf("parallel scheduler errors: %v", errs)
	}
	for _, d := range doms {
		verifyStressImage(t, x, d, workGFN, workPages, rounds)
		if got := x.ConsoleLog(d.ID); !bytes.Contains(got, []byte(fmt.Sprintf("dom%d r%d;", d.ID, rounds-1))) {
			t.Errorf("dom %d console missing final round marker: %q", d.ID, got)
		}
		if x.DomainCycles(d.ID) == 0 {
			t.Errorf("dom %d: no cycles accounted", d.ID)
		}
	}
	// Every runner core went offline again: only the boot CPU's TLB
	// remains on the shootdown bus, and the per-vCPU cycle counters all
	// folded back into the machine clock.
	if got := x.M.TLBs.Cores(); got != 1 {
		t.Errorf("shootdown bus has %d cores after ScheduleParallel, want 1", got)
	}
}

// Stress geometry of the equivalence tests: each domain's work pages and
// rounds, and the encryption/lazy-population mix across domains.
const (
	eqWorkGFN   = 2
	eqWorkPages = 3
	eqRounds    = 2
)

var eqSpecs = []struct{ sev, lazy bool }{{true, false}, {false, false}, {true, true}, {false, true}}

// buildEqDomains builds a fresh machine with one started stress domain
// per eqSpecs entry.
func buildEqDomains(t *testing.T) (*Xen, []*Domain) {
	t.Helper()
	x := newXen(t)
	var doms []*Domain
	for i, s := range eqSpecs {
		d, err := x.CreateDomain(DomainConfig{
			Name:     fmt.Sprintf("eq%d", i),
			MemPages: 16,
			SEV:      s.sev,
			Lazy:     s.lazy,
		})
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
		startStressGuest(x, d, eqWorkGFN, eqWorkPages, eqRounds)
	}
	return x, doms
}

// assertSameRun checks that two machines ran the same domains to the
// same end: equal exit tallies, VMRUN and VMEXIT counts, console logs,
// backed-frame sets and working-set memory images.
func assertSameRun(t *testing.T, xs *Xen, ds []*Domain, xp *Xen, dp []*Domain) {
	t.Helper()
	if s, p := xs.ExitCountsSnapshot(), xp.ExitCountsSnapshot(); !maps.Equal(s, p) {
		t.Errorf("exit tallies differ: %v vs %v", s, p)
	}
	sc, pc := xs.M.Ctl.Telem.Reg.Snapshot().Counters, xp.M.Ctl.Telem.Reg.Snapshot().Counters
	for _, name := range []string{"cpu.vmruns", "cpu.vmexits"} {
		if sc[name] == 0 || sc[name] != pc[name] {
			t.Errorf("%s: %d vs %d", name, sc[name], pc[name])
		}
	}

	var sp, pp [hw.PageSize]byte
	for i := range ds {
		s, p := ds[i], dp[i]
		if got := xp.ConsoleLog(p.ID); !bytes.Equal(got, xs.ConsoleLog(s.ID)) {
			t.Errorf("dom %d console differs: %q vs %q", s.ID, xs.ConsoleLog(s.ID), got)
		}
		// The backed-frame sets must agree everywhere; page contents are
		// compared over the written working set. (An SEV page the guest
		// never wrote decrypts to key-dependent garbage — raw DRAM zeros
		// through a per-machine random key — so untouched pages have no
		// meaningful plaintext to compare.)
		for gfn := 0; gfn < s.MemPages; gfn++ {
			sb, pb := s.Frames[gfn] != 0, p.Frames[gfn] != 0
			if sb != pb {
				t.Fatalf("dom %d gfn %d: backed %v vs %v", s.ID, gfn, sb, pb)
			}
		}
		for gfn := uint64(eqWorkGFN); gfn < eqWorkGFN+eqWorkPages; gfn++ {
			if err := xs.M.Ctl.ReadPage(s.Frames[gfn], s.SEV, s.ASID, &sp); err != nil {
				t.Fatal(err)
			}
			if err := xp.M.Ctl.ReadPage(p.Frames[gfn], p.SEV, p.ASID, &pp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sp[:], pp[:]) {
				t.Fatalf("dom %d gfn %d: memory images differ", s.ID, gfn)
			}
		}
	}
}

// TestScheduleParallelMatchesSerial is the equivalence invariant: the same
// guests run through the serial round-robin and through the parallel
// scheduler must leave identical per-domain memory images and console
// logs. Two separate machines are built so nothing leaks between runs.
// One quantum body and one guest switch: both machines dispatch the same
// exits and count the same VMRUNs and VMEXITs.
func TestScheduleParallelMatchesSerial(t *testing.T) {
	xs, ds := buildEqDomains(t)
	if errs := xs.Schedule(ds); len(errs) != 0 {
		t.Fatalf("serial run: %v", errs)
	}
	xp, dp := buildEqDomains(t)
	if errs := xp.ScheduleParallel(dp, 0); len(errs) != 0 {
		t.Fatalf("parallel run: %v", errs)
	}
	assertSameRun(t, xs, ds, xp, dp)
}

// TestScheduleParallelWidthOne pins the degenerate slot-semaphore case:
// one scheduling slot serializes the runners but must still complete every
// domain through the per-core machinery.
func TestScheduleParallelWidthOne(t *testing.T) {
	x := newXen(t)
	var doms []*Domain
	for i := 0; i < 3; i++ {
		d, err := x.CreateDomain(DomainConfig{Name: fmt.Sprintf("w1-%d", i), MemPages: 16, SEV: true})
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
		startStressGuest(x, d, 2, 2, 2)
	}
	if errs := x.ScheduleParallel(doms, 1); len(errs) != 0 {
		t.Fatalf("width-1 parallel run: %v", errs)
	}
	for _, d := range doms {
		verifyStressImage(t, x, d, 2, 2, 2)
	}
}

// TestScheduleParallelCollectsErrors mirrors the serial scheduler's error
// contract: one entry per failed domain, successful domains absent.
func TestScheduleParallelCollectsErrors(t *testing.T) {
	x := newXen(t)
	good, _ := x.CreateDomain(DomainConfig{Name: "good", MemPages: 16, SEV: true})
	bad, _ := x.CreateDomain(DomainConfig{Name: "bad", MemPages: 16, SEV: true})
	x.StartVCPU(good, func(g *GuestEnv) error {
		_, err := g.Hypercall(HCVoid)
		return err
	})
	x.StartVCPU(bad, func(g *GuestEnv) error {
		if _, err := g.Hypercall(HCVoid); err != nil {
			return err
		}
		return fmt.Errorf("guest panic")
	})
	errs := x.ScheduleParallel([]*Domain{good, bad}, 2)
	if len(errs) != 1 {
		t.Fatalf("want one error, got %v", errs)
	}
	if errs[bad.ID] == nil {
		t.Fatal("bad domain's error missing")
	}
}

// TestScheduleParallelUnstartedDomain: a domain without a vCPU fails its
// runner without wedging the others.
func TestScheduleParallelUnstartedDomain(t *testing.T) {
	x := newXen(t)
	idle, _ := x.CreateDomain(DomainConfig{Name: "idle", MemPages: 16, SEV: true})
	live, _ := x.CreateDomain(DomainConfig{Name: "live", MemPages: 16, SEV: true})
	x.StartVCPU(live, func(g *GuestEnv) error {
		_, err := g.Hypercall(HCVoid)
		return err
	})
	errs := x.ScheduleParallel([]*Domain{idle, live}, 2)
	if errs[idle.ID] == nil {
		t.Fatal("unstarted domain should error")
	}
	if errs[live.ID] != nil {
		t.Fatalf("live domain failed: %v", errs[live.ID])
	}
}

// TestScheduleParallelSingleDomainParity guards the promise that a single
// domain under ScheduleParallel costs within 10% of the serial Schedule —
// the per-core bring-up, big-lock traffic and world switches must not tax
// the degenerate case. Each timed chunk runs
// domains created before the clock starts, one at a time, and destroys
// them after it stops. A round pairs the two schedulers in ABBA order and
// sums each side, so load that comes and goes hits both alike; the test
// judges the round with the lowest parallel/serial ratio, as the
// telemetry-off overhead guard does.
func TestScheduleParallelSingleDomainParity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	const (
		chunk  = 16 // domains per timed chunk, ~1 ms
		pairs  = 8  // ABBA pairs per round
		rounds = 8
	)
	m, err := NewMachine(Config{MemPages: 2048, CacheLines: 512})
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, hw.PageSize)
	guest := func(g *GuestEnv) error {
		for r := 0; r < 8; r++ {
			if err := g.Write(2*hw.PageSize, buf); err != nil {
				return err
			}
			if _, err := g.Hypercall(HCVoid); err != nil {
				return err
			}
		}
		return nil
	}
	serial := func(d *Domain) map[DomID]error { return x.Schedule([]*Domain{d}) }
	par := func(d *Domain) map[DomID]error { return x.ScheduleParallel([]*Domain{d}, 1) }
	doms := make([]*Domain, chunk)
	run := func(sched func(*Domain) map[DomID]error) time.Duration {
		for i := range doms {
			d, err := x.CreateDomain(DomainConfig{Name: "parity", MemPages: 16})
			if err != nil {
				t.Fatal(err)
			}
			x.StartVCPU(d, guest)
			doms[i] = d
		}
		start := time.Now()
		for _, d := range doms {
			if errs := sched(d); len(errs) != 0 {
				t.Fatal(errs[d.ID])
			}
		}
		elapsed := time.Since(start)
		for _, d := range doms {
			if err := x.DestroyDomain(d); err != nil {
				t.Fatal(err)
			}
		}
		return elapsed
	}
	for i := 0; i < pairs; i++ { // warm both sides before timing
		run(serial)
		run(par)
	}
	best, bestSerial, bestPar := math.Inf(1), time.Duration(0), time.Duration(0)
	for r := 0; r < rounds; r++ {
		var s, p time.Duration
		for i := 0; i < pairs; i++ {
			s += run(serial)
			p += run(par) + run(par)
			s += run(serial)
		}
		t.Logf("round %d: serial %v, parallel %v, ratio %.3f", r, s, p, float64(p)/float64(s))
		if ratio := float64(p) / float64(s); s > 0 && ratio < best {
			best, bestSerial, bestPar = ratio, s, p
		}
	}
	if math.IsInf(best, 1) {
		t.Skip("timer resolution too coarse for parity check")
	}
	if best > 1.10 {
		t.Errorf("ScheduleParallel with 1 domain costs %v vs serial %v in its best round (%.1f%% > 10%% overhead, GOMAXPROCS=%d)",
			bestPar, bestSerial, 100*(best-1), runtime.GOMAXPROCS(0))
	}
	t.Logf("best round: serial %v, parallel %v (%+.1f%%)", bestSerial, bestPar, 100*(best-1))
}
