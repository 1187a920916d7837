package fidelius

// Wall-clock micro-benchmarks of the simulator itself: boot, the guest
// memory pipeline, bulk page crypto, the parallel scheduler and
// lifecycle churn. They report host ns/op only. The modelled numbers of
// the evaluation are pinned exactly by TestModelledNumbers, and the
// end-to-end workloads are gated between artifacts by benchmark/.
//
// Run with: go test -run '^$' -bench=. -benchmem

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fidelius/internal/hw"
	"fidelius/internal/sev"
)

// BenchmarkProtectedBoot measures the full protected-VM boot path
// (RECEIVE chain, measurement verification, activation).
func BenchmarkProtectedBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plat, err := NewPlatform(Config{Protected: true})
		if err != nil {
			b.Fatal(err)
		}
		owner, err := NewOwner()
		if err != nil {
			b.Fatal(err)
		}
		bundle, _, err := PrepareGuest(owner, plat.PlatformKey(), make([]byte, 4*PageSize), nil)
		if err != nil {
			b.Fatal(err)
		}
		vm, err := plat.LaunchVM("bench", 64, bundle)
		if err != nil {
			b.Fatal(err)
		}
		if err := plat.Shutdown(vm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuestMemoryThroughput measures raw guest memory access through
// the full two-dimensional translation and encryption pipeline.
func BenchmarkGuestMemoryThroughput(b *testing.B) {
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		b.Fatal(err)
	}
	owner, _ := NewOwner()
	bundle, _, err := PrepareGuest(owner, plat.PlatformKey(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	vm, err := plat.LaunchVM("tput", 64, bundle)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, PageSize)
	b.ResetTimer()
	plat.StartVCPU(vm, func(g *GuestEnv) error {
		for i := 0; i < b.N; i++ {
			if err := g.Write(0x8000, buf); err != nil {
				return err
			}
			if err := g.Read(0x8000, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err := plat.Run(vm); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * PageSize)
}

// BenchmarkBulkPageCrypt measures the firmware's bulk page-crypto fan-out
// (SEND_UPDATE over the worker pool) at pool widths 1, 2 and 4. The output
// is byte-identical across widths; what scales is the parallel seal phase.
// Note that on a single-CPU host (GOMAXPROCS=1) the widths serialize onto
// one core, so wall-clock scaling only shows on multi-core machines.
func BenchmarkBulkPageCrypt(b *testing.B) {
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", width), func(b *testing.B) {
			ctl := hw.NewController(hw.NewMemory(256), 0)
			fw := sev.NewFirmware(ctl)
			if err := fw.Init(); err != nil {
				b.Fatal(err)
			}
			h, err := fw.LaunchStart(0)
			if err != nil {
				b.Fatal(err)
			}
			if err := fw.LaunchFinish(h); err != nil {
				b.Fatal(err)
			}
			pub, err := fw.PublicKey()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fw.SendStart(h, pub, make([]byte, 16)); err != nil {
				b.Fatal(err)
			}
			fw.Pool().SetWidth(width)
			pfns := make([]hw.PFN, 64)
			for i := range pfns {
				pfns[i] = hw.PFN(i + 8)
			}
			dst := make([]byte, len(pfns)*PageSize)
			b.SetBytes(int64(len(pfns)) * PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fw.SendUpdatePages(h, pfns, dst, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleParallel compares serial Schedule against the
// goroutine-per-domain ScheduleParallel for 1 through 64 concurrent
// domains running identical CPU-plus-memory-bound guests. The fleet
// sizes (16, 64) are the point of the per-domain locking split: quanta
// of distinct domains touch no shared lock, so parallel throughput is
// bounded by cores, not by a big hypervisor lock. On a single-CPU host
// (GOMAXPROCS=1) the runners serialize onto one core and parallel
// ~matches serial plus a small coordination tax; the >1x speedup the
// design targets shows on multi-core machines.
func BenchmarkScheduleParallel(b *testing.B) {
	const (
		guestRounds = 16
		workPages   = 4
	)
	guestFor := func(id int) func(*GuestEnv) error {
		return func(g *GuestEnv) error {
			buf := make([]byte, PageSize)
			for r := 0; r < guestRounds; r++ {
				for p := uint64(0); p < workPages; p++ {
					for i := range buf {
						buf[i] = byte(uint64(id)*31 + p*17 + uint64(r)*7 + uint64(i))
					}
					if err := g.Write((2+p)*PageSize, buf); err != nil {
						return err
					}
					if _, err := g.Hypercall(HCVoid); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	for _, nDoms := range []int{1, 2, 4, 16, 64} {
		for _, mode := range []string{"serial", "parallel"} {
			b.Run(fmt.Sprintf("domains=%d/%s", nDoms, mode), func(b *testing.B) {
				cfg := Config{}
				if nDoms > 4 {
					// 64 domains x 16 guest pages plus VMCB/NPT/start-info
					// overhead per domain: give the fleet headroom.
					cfg.MemPages = 8192
				}
				plat, err := NewPlatform(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(nDoms * guestRounds * workPages * PageSize))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					doms := make([]*Domain, nDoms)
					for d := range doms {
						vm, err := plat.CreateVM(fmt.Sprintf("bench%d", d), 16, d%2 == 0)
						if err != nil {
							b.Fatal(err)
						}
						plat.StartVCPU(vm, guestFor(d))
						doms[d] = vm
					}
					b.StartTimer()
					if mode == "serial" {
						for _, vm := range doms {
							if err := plat.Run(vm); err != nil {
								b.Fatal(err)
							}
						}
					} else {
						if errs := plat.X.ScheduleParallel(doms, 0); len(errs) != 0 {
							b.Fatal(errs)
						}
					}
					b.StopTimer()
					for _, vm := range doms {
						if err := plat.Shutdown(vm); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			})
		}
	}
}

// churnLifetime is one short protected lifetime: create an SEV domain,
// run a guest that writes a line and makes one hypercall, shut it down.
func churnLifetime(plat *Platform, name string) error {
	vm, err := plat.CreateVM(name, 8, true)
	if err != nil {
		return err
	}
	plat.StartVCPU(vm, func(g *GuestEnv) error {
		if err := g.Write(2*PageSize, []byte("churn")); err != nil {
			return err
		}
		_, err := g.Hypercall(HCVoid)
		return err
	})
	if errs := plat.X.ScheduleParallel([]*Domain{vm}, 1); len(errs) != 0 {
		return fmt.Errorf("run %s: %v", name, errs)
	}
	return plat.Shutdown(vm)
}

// BenchmarkLifecycleChurn measures fleet-scale domain lifecycle churn:
// each iteration is a 64-lifetime launch/run/decommission storm driven
// by 8 concurrent workers against one long-lived platform, so the SEV
// ASID pool crosses the 254-ASID hardware limit within a few iterations
// and later lifetimes ride the batch-DF_FLUSH recycle path. The cycle
// account of a serial churn is pinned by TestModelledNumbers.
func BenchmarkLifecycleChurn(b *testing.B) {
	const (
		workers   = 8
		perWorker = 8 // 64 lifetimes per iteration
	)
	plat, err := NewPlatform(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for l := 0; l < perWorker; l++ {
					if err := churnLifetime(plat, fmt.Sprintf("churn%d-%d", w, l)); err != nil {
						errc <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			b.Fatal(err)
		}
	}
}

// vmLifetime is one VM lifetime between two protected platforms, as the
// vm-lifecycle workload lives it: kernel prepared for a and launched as
// a memPages-page VM, live-migrated to b while the guest dirties 8 pages
// across 4 halts, read back on b and shut down on both. around wraps
// the LiveMigrate call, so a test can measure it alone.
func vmLifetime(a, b *Platform, owner *Owner, kernel []byte, memPages int, around func(func() error) error) error {
	bundle, _, err := PrepareGuest(owner, a.PlatformKey(), kernel, nil)
	if err != nil {
		return err
	}
	vm, err := a.LaunchVM("lifetime", memPages, bundle)
	if err != nil {
		return err
	}
	const base, pages, halts = 16 * PageSize, 8, 4
	a.StartVCPU(vm, func(g *GuestEnv) error {
		for h := uint64(0); h < halts; h++ {
			for w := uint64(0); w < pages; w++ {
				if err := g.Write64(base+w*PageSize, h); err != nil {
					return err
				}
			}
			g.Halt()
		}
		return nil
	})
	var moved *Domain
	if err := around(func() (err error) {
		moved, _, err = LiveMigrate(a, vm, b, MigrateConfig{AckTimeout: 10 * time.Second})
		return err
	}); err != nil {
		return errors.Join(err, a.Shutdown(vm))
	}
	var got uint64
	b.StartVCPU(moved, func(g *GuestEnv) (err error) {
		got, err = g.Read64(base + (pages-1)*PageSize)
		return err
	})
	if err := b.Run(moved); err != nil {
		return err
	}
	if got != halts-1 {
		return fmt.Errorf("migrated page reads %d, want %d", got, halts-1)
	}
	return errors.Join(b.Shutdown(moved), a.Shutdown(vm))
}

// BenchmarkLifetime measures one VM lifetime between two long-lived
// protected platforms (vmLifetime), shaped as the vm-lifecycle
// workload's: a 16-page kernel in a 64-page VM. Its bytes/op show what a
// lifetime allocates.
func BenchmarkLifetime(b *testing.B) {
	src, err := NewPlatform(Config{Protected: true})
	if err != nil {
		b.Fatal(err)
	}
	dst, err := NewPlatform(Config{Protected: true})
	if err != nil {
		b.Fatal(err)
	}
	owner, err := NewOwner()
	if err != nil {
		b.Fatal(err)
	}
	kernel := bytes.Repeat([]byte("LIFETIME-KERNEL!"), 16*PageSize/16)
	call := func(fn func() error) error { return fn() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vmLifetime(src, dst, owner, kernel, 64, call); err != nil {
			b.Fatal(err)
		}
	}
}
