package main

import (
	"bytes"
	"crypto/ecdsa"
	"fmt"
	"math/rand"
	"os"
	"time"

	"fidelius"
	"fidelius/internal/telemetry"
)

// The vm-lifecycle workload: one closed-loop client lives 320 VM lifetimes
// per pass between two long-lived protected platforms. Each lifetime
// prepares a 16-page kernel and launches a 64-page VM on A, attests it
// against a fresh nonce, lets the guest dirty a seeded 1-24 pages across
// 20 halts while LiveMigrate moves it to B, reads the pages back in a guest
// on B, and shuts the VM down on both platforms. 320 launches on A pass
// the 254-ASID limit, so later lifetimes ride the DF_FLUSH recycle path.
const (
	lifetimes      = 320
	quickLifetimes = 8
	lifeMemPages   = 64
	lifeKernel     = 16 // pages
	maxDirtyPages  = 24
	dirtyHalts     = 20
	// dirtyBase is the first working-set page: above the boot frames and
	// below the kernel, which sits at the top of guest memory.
	dirtyBase = 16 * fidelius.PageSize
	// ackTimeout bounds the migration protocol's wait on the host clock;
	// a retry would change the modelled wire traffic, so it is far above
	// any pause a loaded host makes.
	ackTimeout = 10 * time.Second
)

func lifecyclePass(r *recorder, o options) error {
	var a, b *fidelius.Platform
	if err := r.timeSetup("boot", func() (err error) {
		if a, err = fidelius.NewPlatform(fidelius.Config{Protected: true}); err != nil {
			return err
		}
		b, err = fidelius.NewPlatform(fidelius.Config{Protected: true})
		return err
	}); err != nil {
		return err
	}
	ha, hb := a.Telemetry(), b.Telemetry()
	r.attach(ha)
	r.attach(hb)
	var owner *fidelius.Owner
	if err := r.timeSetup("owner", func() (err error) {
		owner, err = fidelius.NewOwner()
		return err
	}); err != nil {
		return err
	}
	akey, err := a.AttestationKey()
	if err != nil {
		return err
	}
	kernel := bytes.Repeat([]byte("LIFECYCLE-KERNEL"), lifeKernel*fidelius.PageSize/16)

	n := lifetimes
	if o.quick {
		n = quickLifetimes
	}
	rng := rand.New(rand.NewSource(o.seed))
	err = r.timeRun("lifecycle", []*telemetry.Hub{ha, hb}, func() error {
		for l := 0; l < n; l++ {
			pages := 1 + rng.Intn(maxDirtyPages)
			nonce := make([]byte, 16)
			rng.Read(nonce)
			r.attempted++
			res, err := lifetime(a, b, owner, akey, kernel, l, pages, nonce)
			if err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "lifetime %d: %v\n", l, err)
				continue
			}
			if !res.intact {
				r.gate("lifetime %d: the migrated working set of %d pages did not read back intact", l, pages)
			}
			r.samples["launch"] = append(r.samples["launch"], res.launch)
			r.samples["downtime"] = append(r.samples["downtime"], res.downtime)
			r.samples["rounds"] = append(r.samples["rounds"], uint64(res.rounds))
			r.samples["pages_sent"] = append(r.samples["pages_sent"], uint64(res.pagesSent))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, h := range []*telemetry.Hub{ha, hb} {
		if _, err := r.detach(h); err != nil {
			return err
		}
	}
	return nil
}

type lifetimeResult struct {
	launch, downtime  uint64 // modelled cycles
	rounds, pagesSent int
	intact            bool
}

// lifetime runs one VM lifetime, launch to shutdown on both platforms.
func lifetime(a, b *fidelius.Platform, owner *fidelius.Owner, akey *ecdsa.PublicKey, kernel []byte, l, pages int, nonce []byte) (lifetimeResult, error) {
	var res lifetimeResult
	bundle, _, err := fidelius.PrepareGuest(owner, a.PlatformKey(), kernel, nil)
	if err != nil {
		return res, fmt.Errorf("prepare: %w", err)
	}
	c0 := a.Telemetry().Now()
	vm, err := a.LaunchVM(fmt.Sprintf("life-%d", l), lifeMemPages, bundle)
	if err != nil {
		return res, fmt.Errorf("launch: %w", err)
	}
	q, err := a.AttestVM(vm, nonce)
	if err == nil {
		err = fidelius.VerifyQuote(akey, q, nonce)
	}
	if err != nil {
		_ = a.Shutdown(vm) // the attestation failure is the error to report
		return res, fmt.Errorf("attest: %w", err)
	}
	res.launch = a.Telemetry().Now() - c0

	stamp := func(sweep int) uint64 { return uint64(l)<<32 | uint64(sweep) }
	a.StartVCPU(vm, func(g *fidelius.GuestEnv) error {
		for s := 0; s < dirtyHalts; s++ {
			for w := 0; w < pages; w++ {
				if err := g.Write64(dirtyBase+uint64(w)*fidelius.PageSize, stamp(s)); err != nil {
					return err
				}
			}
			g.Halt()
		}
		return nil
	})
	moved, st, err := fidelius.LiveMigrate(a, vm, b, fidelius.MigrateConfig{AckTimeout: ackTimeout})
	if err != nil {
		_ = a.Shutdown(vm) // the migration failure is the error to report
		return res, fmt.Errorf("migrate: %w", err)
	}
	res.downtime, res.rounds, res.pagesSent = st.DowntimeCycles, st.Rounds, st.PagesSent

	// The guest finishes its sweeps during the pre-copy rounds, so every
	// page must hold the last sweep's stamp.
	res.intact = st.GuestDone
	b.StartVCPU(moved, func(g *fidelius.GuestEnv) error {
		for w := 0; w < pages; w++ {
			v, err := g.Read64(dirtyBase + uint64(w)*fidelius.PageSize)
			if err != nil {
				return err
			}
			if v != stamp(dirtyHalts-1) {
				res.intact = false
			}
		}
		return nil
	})
	if err := b.Run(moved); err != nil {
		return res, fmt.Errorf("read back: %w", err)
	}
	if err := b.Shutdown(moved); err != nil {
		return res, fmt.Errorf("shutdown on the target: %w", err)
	}
	if err := a.Shutdown(vm); err != nil {
		return res, fmt.Errorf("shutdown on the source: %w", err)
	}
	return res, nil
}

// lifecycleMetrics derives launch_mcyc (p50 of LaunchVM + AttestVM +
// VerifyQuote) and the p50/p95 migration downtime; with 320 lifetimes
// p95 is the highest percentile with at least 16 samples beyond it.
// Failed lifetimes count as +Inf.
func lifecycleMetrics(first, _ *recorder, _ options, out map[string]float64) {
	launch := sortedCopy(first.samples["launch"])
	down := sortedCopy(first.samples["downtime"])
	out["launch_mcyc"] = rankQuantile(launch, first.attempted, 5000) / 1e6
	out["downtime_kcyc.p50"] = rankQuantile(down, first.attempted, 5000) / 1e3
	out["downtime_kcyc.p95"] = rankQuantile(down, first.attempted, 9500) / 1e3
}
