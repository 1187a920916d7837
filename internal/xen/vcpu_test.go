package xen

import (
	"errors"
	"sync"
	"testing"
	"time"

	"fidelius/internal/hw"
)

// TestVCPUDestroyUnwindsParkedGuest: destroying a domain whose guest is
// parked in exit unwinds the guest, running its defers, instead of
// leaving its coroutine (and the domain and machine it references)
// alive for good. A later quantum finds the vCPU shut down.
func TestVCPUDestroyUnwindsParkedGuest(t *testing.T) {
	x := newXen(t)
	d, err := x.CreateDomain(DomainConfig{Name: "parked", MemPages: 16, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	unwound := make(chan struct{})
	x.StartVCPU(d, func(g *GuestEnv) error {
		defer close(unwound)
		for {
			g.Halt()
		}
	})
	for i := 0; i < 3; i++ {
		if done, err := x.RunOnce(d); done || err != nil {
			t.Fatalf("quantum %d: done=%v err=%v", i, done, err)
		}
	}
	if err := x.DestroyDomain(d, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unwound:
	case <-time.After(time.Second):
		t.Fatal("guest still parked 1s after DestroyDomain")
	}
	if done, err := x.RunOnce(d); !done || err == nil {
		t.Fatalf("quantum on a destroyed domain: done=%v err=%v", done, err)
	}
}

// TestVCPUGuestPanicIsShutdown: a panicking guest shuts its own vCPU
// down with the panic as its error, the analogue of a triple fault,
// under either scheduler; the process and the other domains carry on.
func TestVCPUGuestPanicIsShutdown(t *testing.T) {
	const msg = "still standing"
	for _, tc := range []struct {
		name  string
		sched func(x *Xen, doms []*Domain) map[DomID]error
	}{
		{"serial", (*Xen).Schedule},
		{"parallel", func(x *Xen, doms []*Domain) map[DomID]error { return x.ScheduleParallel(doms, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := newXen(t)
			good, _ := x.CreateDomain(DomainConfig{Name: "good", MemPages: 16, SEV: true})
			bad, _ := x.CreateDomain(DomainConfig{Name: "bad", MemPages: 16, SEV: true})
			x.StartVCPU(good, func(g *GuestEnv) error { return g.ConsolePrint(msg) })
			x.StartVCPU(bad, func(g *GuestEnv) error {
				g.Halt()
				panic("guest bug")
			})
			errs := tc.sched(x, []*Domain{good, bad})
			const want = "xen: guest panicked: guest bug"
			if len(errs) != 1 || errs[bad.ID] == nil || errs[bad.ID].Error() != want {
				t.Fatalf("errors %v, want only %q for dom %d", errs, want, bad.ID)
			}
			if got := string(x.ConsoleLog(good.ID)); got != msg {
				t.Errorf("good domain console %q, want %q", got, msg)
			}
			if done, err := x.RunOnce(bad); !done || err == nil || err.Error() != want {
				t.Errorf("quantum after the panic: done=%v err=%v", done, err)
			}
		})
	}
}

// quotaInterposer vetoes a domain's entry once it has spent its quota of
// quanta, which ends a scheduler's run of the domain with its guest
// parked in exit. Domains without a quota run freely.
type quotaInterposer struct {
	Interposer
	mu   sync.Mutex
	left map[DomID]int
}

var errQuotaSpent = errors.New("quota spent")

func (q *quotaInterposer) PreVMRun(d *Domain, vmcbPA hw.PhysAddr) error {
	q.mu.Lock()
	n, ok := q.left[d.ID]
	if ok && n > 0 {
		q.left[d.ID] = n - 1
	}
	q.mu.Unlock()
	if ok && n == 0 {
		return errQuotaSpent
	}
	return q.Interposer.PreVMRun(d, vmcbPA)
}

// setQuota gives every domain in doms n more quanta and lifts the quota
// of every other domain.
func (q *quotaInterposer) setQuota(doms []*Domain, n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.left = make(map[DomID]int)
	for _, d := range doms {
		q.left[d.ID] = n
	}
}

// TestVCPUAlternatingSerialParallel hands the same parked guests from the
// serial scheduler to the parallel one and back: each vCPU is resumed
// from the test goroutine, then from a runner goroutine on its own core,
// then from the test goroutine again. The run must end exactly as a
// serial-only run of the same domains does.
func TestVCPUAlternatingSerialParallel(t *testing.T) {
	xs, ds := buildEqDomains(t)
	if errs := xs.Schedule(ds); len(errs) != 0 {
		t.Fatalf("serial-only run: %v", errs)
	}

	xa, da := buildEqDomains(t)
	q := &quotaInterposer{Interposer: xa.Interpose}
	xa.Interpose = q
	for _, phase := range []struct {
		name   string
		quanta int
		sched  func([]*Domain) map[DomID]error
	}{
		{"serial", 3, xa.Schedule},
		{"parallel", 5, func(doms []*Domain) map[DomID]error { return xa.ScheduleParallel(doms, 0) }},
	} {
		q.setQuota(da, phase.quanta)
		errs := phase.sched(da)
		for _, d := range da {
			if !errors.Is(errs[d.ID], errQuotaSpent) {
				t.Fatalf("%s phase: dom %d ended with %v, want its quota spent", phase.name, d.ID, errs[d.ID])
			}
		}
	}
	q.setQuota(nil, 0)
	if errs := xa.Schedule(da); len(errs) != 0 {
		t.Fatalf("final serial phase: %v", errs)
	}
	assertSameRun(t, xs, ds, xa, da)
}

// BenchmarkQuantumRoundTrip is one serial scheduling quantum of a guest
// that does nothing but halt: VMRUN, the world switch into the guest and
// back, the HLT exit and its dispatch.
func BenchmarkQuantumRoundTrip(b *testing.B) {
	m, err := NewMachine(Config{MemPages: 2048, CacheLines: 512})
	if err != nil {
		b.Fatal(err)
	}
	x, err := New(m)
	if err != nil {
		b.Fatal(err)
	}
	d, err := x.CreateDomain(DomainConfig{Name: "rt", MemPages: 16})
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	x.StartVCPU(d, func(g *GuestEnv) error {
		for i := 0; i < n; i++ {
			g.Halt()
		}
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < n; i++ {
		if done, err := x.RunOnce(d); done || err != nil {
			b.Fatalf("quantum %d: done=%v err=%v", i, done, err)
		}
	}
	b.StopTimer()
	if done, err := x.RunOnce(d); !done || err != nil {
		b.Fatalf("final quantum: done=%v err=%v", done, err)
	}
}
