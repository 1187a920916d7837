package fidelius

// The deterministic numbers of the evaluation, pinned exactly. Every
// figure the simulator derives from its modelled cycle clock — the
// paper's Fig 5/6, Table 3 and §7.2 micro-benchmarks, the DESIGN.md
// ablations, and the serving, kv, lifecycle and migration scenarios —
// is measured once here on fresh platforms, so no value depends on how
// often it was measured before. A change to any of them is a change to
// the model and must show up as an edit to this table.
//
// Wall-clock cost lives elsewhere: bench_test.go holds the simulator's
// micro-benchmarks, and benchmark/ (BENCHMARK.json) gates the end-to-end
// host time, allocation and RSS of each workload between artifacts.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"fidelius/internal/bench"
	"fidelius/internal/kv"
	"fidelius/internal/telemetry"
	"fidelius/internal/workload"
)

type (
	// counts are whole numbers (cycles, ops, seeks, pages), compared
	// with ==.
	counts map[string]uint64
	// ratios (percentages, per-op averages, interpolated quantiles) are
	// compared through fixed4, so a last-bit difference in floating-point
	// evaluation between architectures cannot flake the test.
	ratios map[string]float64
)

// modelled is one row's readings.
type modelled struct {
	counts counts
	ratios ratios
}

// fixed4 is a ratio as a whole number of 1e-4 units.
func fixed4(v float64) int64 { return int64(math.Round(v * 1e4)) }

func TestModelledNumbers(t *testing.T) {
	rows := []struct {
		name    string
		measure func() (modelled, error)
		want    modelled
	}{
		{"fig5", figure(bench.Figure5, "mcf", "omnetpp"), modelled{nil,
			ratios{"enc-overhead-%": 5.991, "fid-overhead-%": 0.7909, "mcf-enc-%": 17.345, "omnetpp-enc-%": 16.4894}}},
		{"fig6", figure(bench.Figure6, "canneal"), modelled{nil,
			ratios{"canneal-enc-%": 15.5599, "enc-overhead-%": 2.4181, "fid-overhead-%": 0.3576}}},
		{"table3", measureTable3, modelled{nil,
			ratios{"rand-read-%": 1.67, "rand-write-%": 1.2756, "seq-read-%": 23.1462, "seq-write-%": 5.1735}}},
		{"micro-gates", measureMicroGates, modelled{
			counts{"gate1-cycles": 306, "gate2-cycles": 16, "gate3-cycles": 339}, nil}},
		{"micro-shadow", measureMicroShadow, modelled{
			counts{"fidelius-roundtrip-cycles": 4038, "shadow-cycles": 680, "xen-roundtrip-cycles": 3019}, nil}},
		{"micro-iocrypt", measureMicroIOCrypt, modelled{nil,
			ratios{"aesni-%": 11.5, "sev-%": 8.5, "software-x": 23}}},
		{"gate-ablation", measureGateAblation, modelled{
			counts{"add-mapping-cycles": 339, "cr3-switch-cycles": 4008, "wp-toggle-cycles": 306}, nil}},
		{"npt-ablation", measureNPTAblation, modelled{
			counts{"eager-run-cycles": 8246, "lazy-npf-count": 48, "lazy-run-cycles": 225082}, nil}},
		{"paging-ablation", measurePagingAblation, modelled{
			counts{"flat-cycles/access": 100, "nested-cycles/access": 118}, nil}},
		{"shadow-vs-trap", measureShadowVsTrap, modelled{
			counts{"shadow-cycles": 661, "trap-cycles": 9030}, nil}},
		{"fio-sev-path", measureFioSEVPath, modelled{nil,
			ratios{"sev-io-slowdown-%": 50.3358}}},
		{"lifecycle-churn", measureLifecycleChurn, modelled{
			counts{"churn-cycles": 10426216, "df-flushes": 1},
			ratios{"lifetime-cycles": 32581.925}}},
		{"serve-get-put", measureServe(ServeConfig{
			Tenants: 4, ClientsPerTenant: 16, OpsPerClient: 2, RatePerMCycle: 0.2, Seed: 7,
		}), modelled{
			counts{"cache-hits": 0, "cache-misses": 18, "elapsed-cycles": 179783609, "holds": 0, "ops": 128, "seeks": 208},
			ratios{"hit-%": 0, "ops/Mcycle": 0.712, "p50-cycles": 1196032, "p99-cycles": 11408506.88, "seeks/op": 1.625}}},
		{"serve-put-heavy-knee", measureServe(ServeConfig{
			Tenants: 4, ClientsPerTenant: 16, OpsPerClient: 2, RatePerMCycle: 3.2, PutFrac: 0.7, DelFrac: 0.1, Seed: 7,
		}), modelled{
			counts{"cache-hits": 0, "cache-misses": 6, "elapsed-cycles": 15934648, "holds": 0, "ops": 128, "seeks": 32},
			ratios{"hit-%": 0, "ops/Mcycle": 8.0328, "p50-cycles": 9774551.9304, "p99-cycles": 16637162.7186, "seeks/op": 0.25}}},
		{"serve-put-heavy-slo", measureServe(ServeConfig{
			Tenants: 4, ClientsPerTenant: 16, OpsPerClient: 2, RatePerMCycle: 1.6, PutFrac: 0.7, DelFrac: 0.1, Seed: 7,
		}), modelled{
			counts{"cache-hits": 0, "cache-misses": 6, "elapsed-cycles": 23226674, "holds": 79, "ops": 128, "seeks": 48},
			ratios{"hit-%": 0, "ops/Mcycle": 5.5109, "p50-cycles": 3757397.3333, "p99-cycles": 16478954.3822, "seeks/op": 0.375}}},
		{"serve-get-heavy/cache=on", measureServe(getHeavy(0)), modelled{
			counts{"cache-hits": 72, "cache-misses": 77, "elapsed-cycles": 74562821, "holds": 1274, "ops": 256, "seeks": 94},
			ratios{"hit-%": 48.3221, "ops/Mcycle": 3.4333, "p50-cycles": 2054177.5738, "p99-cycles": 16061388.1173, "seeks/op": 0.3672}}},
		{"serve-get-heavy/cache=off", measureServe(getHeavy(-1)), modelled{
			counts{"cache-hits": 0, "cache-misses": 0, "elapsed-cycles": 74558856, "holds": 1277, "ops": 256, "seeks": 94},
			ratios{"ops/Mcycle": 3.4335, "p50-cycles": 2054177.5738, "p99-cycles": 16061388.1173, "seeks/op": 0.3672}}},
		{"kv-group-commit/depth=1", measureGroupCommit(1), modelled{
			counts{"commit-cycles": 9430747, "puts": 12, "seeks": 23},
			ratios{"put-cycles": 785895.5833, "seeks/put": 1.9167}}},
		{"kv-group-commit/depth=7", measureGroupCommit(7), modelled{
			counts{"commit-cycles": 10172955, "puts": 84, "seeks": 24},
			ratios{"put-cycles": 121106.6071, "seeks/put": 0.2857}}},
		{"kv-group-commit/depth=15", measureGroupCommit(15), modelled{
			counts{"commit-cycles": 10630050, "puts": 180, "seeks": 24},
			ratios{"put-cycles": 59055.8333, "seeks/put": 0.1333}}},
		{"kv-compact", measureKVCompact, modelled{
			counts{"compact-cycles": 1294586, "reclaimed-sectors": 80}, nil}},
		{"migration", measureMigration, modelled{
			counts{"downtime-cycles": 225280, "pages-sent": 67}, nil}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got, err := row.measure()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range sortedKeys(row.want.counts, got.counts) {
				w, okW := row.want.counts[k]
				g, okG := got.counts[k]
				if !okW || !okG || w != g {
					t.Errorf("%s: got %d (measured %v), want %d (pinned %v)", k, g, okG, w, okW)
				}
				t.Logf("%s = %d", k, g)
			}
			for _, k := range sortedKeys(row.want.ratios, got.ratios) {
				w, okW := row.want.ratios[k]
				g, okG := got.ratios[k]
				if !okW || !okG || fixed4(w) != fixed4(g) {
					t.Errorf("%s: got %.4f (measured %v), want %.4f (pinned %v)", k, g, okG, w, okW)
				}
				t.Logf("%s = %.4f", k, g)
			}
		})
	}
}

// sortedKeys is the sorted union of two maps' keys.
func sortedKeys[M ~map[string]V, V any](a, b M) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestKVGroupCommitRepeatable: two consecutive group-commit measurements
// in one process report the same put-cycles. Measured back to back on one
// platform, the second pass would read a warmer modelled cache and TLB
// than the first.
func TestKVGroupCommitRepeatable(t *testing.T) {
	for _, depth := range []int{1, 7, 15} {
		a, errA := measureGroupCommit(depth)()
		b, errB := measureGroupCommit(depth)()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a.ratios["put-cycles"] != b.ratios["put-cycles"] {
			t.Errorf("depth %d: put-cycles %.4f then %.4f", depth, a.ratios["put-cycles"], b.ratios["put-cycles"])
		}
	}
}

// figure reads a figure's average overheads at 8 iterations per profile,
// and the enc overhead of the named benchmarks.
func figure(fig func(iters int) ([]bench.FigRow, error), named ...string) func() (modelled, error) {
	return func() (modelled, error) {
		rows, err := fig(8)
		avg := bench.Average(rows)
		r := ratios{"fid-overhead-%": avg.Fid, "enc-overhead-%": avg.Enc}
		for _, row := range rows {
			for _, n := range named {
				if row.Name == n {
					r[n+"-enc-%"] = row.Enc
				}
			}
		}
		return modelled{nil, r}, err
	}
}

func measureTable3() (modelled, error) {
	rows, err := bench.Table3(320)
	r := ratios{}
	for _, row := range rows {
		r[row.Pattern.String()+"-%"] = row.Slowdown
	}
	return modelled{nil, r}, err
}

func measureMicroGates() (modelled, error) {
	g, err := bench.MicroBenchGates(1000)
	return modelled{counts{"gate1-cycles": g.Gate1, "gate2-cycles": g.Gate2, "gate3-cycles": g.Gate3}, nil}, err
}

func measureMicroShadow() (modelled, error) {
	s, err := bench.MicroBenchShadow(500)
	return modelled{counts{"shadow-cycles": s.Shadow, "xen-roundtrip-cycles": s.XenRT, "fidelius-roundtrip-cycles": s.FideliusRT}, nil}, err
}

func measureMicroIOCrypt() (modelled, error) {
	r := bench.MicroBenchIOCrypt(512 << 20)
	return modelled{nil, ratios{"aesni-%": r.AESNISlowdown, "sev-%": r.SEVSlowdown, "software-x": r.SoftwareRatio}}, nil
}

func measureGateAblation() (modelled, error) {
	a, err := bench.MeasureGateAblation(100)
	return modelled{counts{"cr3-switch-cycles": a.CR3Switch, "wp-toggle-cycles": a.WPToggle, "add-mapping-cycles": a.AddMapping}, nil}, err
}

func measureNPTAblation() (modelled, error) {
	a, err := bench.MeasureNPTAblation(48)
	return modelled{counts{"eager-run-cycles": a.EagerRun, "lazy-run-cycles": a.LazyRun, "lazy-npf-count": a.LazyNPF}, nil}, err
}

func measurePagingAblation() (modelled, error) {
	a, err := bench.MeasurePagingAblation(256)
	return modelled{counts{"flat-cycles/access": a.FlatCycles, "nested-cycles/access": a.NestedCycles}, nil}, err
}

func measureShadowVsTrap() (modelled, error) {
	m := bench.ModelShadowVsTrap(5)
	return modelled{counts{"shadow-cycles": m.ShadowCost, "trap-cycles": m.TrapCost}, nil}, nil
}

func measureFioSEVPath() (modelled, error) {
	base, sevRes, err := bench.MeasureFioSEVPath(workload.SeqWrite, 160)
	return modelled{nil, ratios{"sev-io-slowdown-%": sevRes.Slowdown(base)}}, err
}

// measureLifecycleChurn runs 320 serial lifetimes on one platform: past
// the 254-ASID pool, so the recycle path and its DF_FLUSH are in the
// account.
func measureLifecycleChurn() (modelled, error) {
	const lifetimes = 320
	plat, err := NewPlatform(Config{})
	if err != nil {
		return modelled{}, err
	}
	start := plat.X.M.Ctl.Now()
	for l := 0; l < lifetimes; l++ {
		if err := churnLifetime(plat, fmt.Sprintf("serial%d", l)); err != nil {
			return modelled{}, err
		}
	}
	total := plat.X.M.Ctl.Now() - start
	return modelled{
		counts{"churn-cycles": total, "df-flushes": plat.X.ASIDs.Flushes()},
		ratios{"lifetime-cycles": float64(total) / lifetimes},
	}, nil
}

// getHeavy is the read-dominated serving mix (93% gets over a hot
// 3-key-per-client working set) with the given read-cache size.
func getHeavy(cacheEntries int) ServeConfig {
	return ServeConfig{
		Tenants: 4, ClientsPerTenant: 8, OpsPerClient: 8, RatePerMCycle: 1.0,
		PutFrac: 0.05, DelFrac: 0.02, KeySpace: 3, ReadCacheEntries: cacheEntries, Seed: 7,
	}
}

// measureServe drains one serving scenario on a fresh protected platform
// and reads its throughput, latency quantiles, seeks, doorbell holds and
// read-cache hits.
func measureServe(cfg ServeConfig) func() (modelled, error) {
	return func() (modelled, error) {
		plat, err := NewPlatform(Config{Protected: true})
		if err != nil {
			return modelled{}, err
		}
		svc, err := plat.NewServeService(cfg)
		if err != nil {
			return modelled{}, err
		}
		for dom, err := range svc.Run() {
			if err != nil {
				return modelled{}, fmt.Errorf("domain %d: %w", dom, err)
			}
		}
		var ops uint64
		for _, r := range svc.Reports() {
			ops += r.Ops
		}
		snap := plat.Metrics()
		lat := snap.Histograms["serve.latency"]
		seeks := snap.Counters["xen.disk_seeks{kind=read}"] + snap.Counters["xen.disk_seeks{kind=write}"]
		hits, misses := snap.Counters["kv.cache_hits"], snap.Counters["kv.cache_misses"]
		m := modelled{
			counts{
				"ops": ops, "elapsed-cycles": svc.Elapsed(), "seeks": seeks,
				"holds": snap.Counters["serve.holds"], "cache-hits": hits, "cache-misses": misses,
			},
			ratios{
				"ops/Mcycle": float64(ops) / (float64(svc.Elapsed()) / 1e6),
				"seeks/op":   float64(seeks) / float64(ops),
				"p50-cycles": lat.Quantile(0.50), "p99-cycles": lat.Quantile(0.99),
			},
		}
		if hits+misses > 0 {
			m.ratios["hit-%"] = 100 * float64(hits) / float64(hits+misses)
		}
		return m, svc.Shutdown()
	}
}

// kvGuest launches a protected 64-page guest with a 512-sector disk on a
// fresh platform and runs fn inside it over the guest's AES-NI-protected
// block device behind a write coalescer — the serve guest's kv stack.
func kvGuest(fn func(hub *telemetry.Hub, dev kv.BlockDev) error) error {
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		return err
	}
	owner, err := NewOwner()
	if err != nil {
		return err
	}
	bundle, _, err := PrepareGuest(owner, plat.PlatformKey(), make([]byte, PageSize), nil)
	if err != nil {
		return err
	}
	vm, err := plat.LaunchVM("kv", 64, bundle)
	if err != nil {
		return err
	}
	if _, err := plat.AttachDisk(vm, NewDisk(512), 2, 1, nil); err != nil {
		return err
	}
	plat.StartVCPU(vm, func(g *GuestEnv) error {
		bf, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		var kblk [32]byte
		if err := g.Read(plat.KernelBase(vm, bundle)*PageSize+KblkOffset, kblk[:]); err != nil {
			return err
		}
		aes, err := NewAESNIFront(g, bf, kblk)
		if err != nil {
			return err
		}
		return fn(plat.Telemetry(), kv.NewWriteCoalescer(aes, 0))
	})
	return plat.Run(vm)
}

// measureGroupCommit runs 12 group commits of depth puts each on a fresh
// store and reads their cycles and write seeks: the 2-seeks-per-put
// terminator dance collapses to 2 seeks per batch.
func measureGroupCommit(depth int) func() (modelled, error) {
	return func() (modelled, error) {
		const (
			batches = 12
			sectors = 1 + 2*248 // each half holds all 12×15 one-sector records
		)
		var spent, seeks uint64
		err := kvGuest(func(hub *telemetry.Hub, dev kv.BlockDev) error {
			if err := kv.Format(dev, 8, sectors); err != nil {
				return err
			}
			store, err := kv.Open(dev, 8, sectors)
			if err != nil {
				return err
			}
			val := make([]byte, 48)
			start, seekStart := hub.Now(), hub.M.DiskSeekWrites.Value()
			for batch := 0; batch < batches; batch++ {
				ops := make([]kv.Op, depth)
				for d := range ops {
					ops[d] = kv.Op{Key: fmt.Sprintf("key-%02d-%02d", batch, d), Value: val}
				}
				if err := store.Apply(ops); err != nil {
					return err
				}
			}
			spent, seeks = hub.Now()-start, hub.M.DiskSeekWrites.Value()-seekStart
			return nil
		})
		puts := uint64(batches * depth)
		return modelled{
			counts{"commit-cycles": spent, "seeks": seeks, "puts": puts},
			ratios{"put-cycles": float64(spent) / float64(puts), "seeks/put": float64(seeks) / float64(puts)},
		}, err
	}
}

// measureKVCompact churns a store until most of its log is dead records,
// then compacts it once: one live-set rewrite plus the superblock flip.
func measureKVCompact() (modelled, error) {
	var spent, reclaimed uint64
	err := kvGuest(func(hub *telemetry.Hub, dev kv.BlockDev) error {
		if err := kv.Format(dev, 8, 257); err != nil {
			return err
		}
		store, err := kv.Open(dev, 8, 257)
		if err != nil {
			return err
		}
		val := make([]byte, 48)
		// 16 keys overwritten 6 times each fill the half with ~83% garbage.
		for round := 0; round < 6; round++ {
			ops := make([]kv.Op, 16)
			for d := range ops {
				ops[d] = kv.Op{Key: fmt.Sprintf("key-%02d", d), Value: val}
			}
			if err := store.Apply(ops); err != nil {
				return err
			}
		}
		before, start := store.UsedSectors(), hub.Now()
		if err := store.Compact(); err != nil {
			return err
		}
		spent, reclaimed = hub.Now()-start, before-store.UsedSectors()
		return nil
	})
	return modelled{counts{"compact-cycles": spent, "reclaimed-sectors": reclaimed}, nil}, err
}

// measureMigration live-migrates a protected 64-page VM whose guest
// re-dirties a small working set between quanta, so pre-copy has pages
// to chase.
func measureMigration() (modelled, error) {
	owner, err := NewOwner()
	if err != nil {
		return modelled{}, err
	}
	src, err := NewPlatform(Config{Protected: true})
	if err != nil {
		return modelled{}, err
	}
	dst, err := NewPlatform(Config{Protected: true})
	if err != nil {
		return modelled{}, err
	}
	bundle, _, err := PrepareGuest(owner, src.PlatformKey(), make([]byte, 16*PageSize), nil)
	if err != nil {
		return modelled{}, err
	}
	vm, err := src.LaunchVM("mig", 64, bundle)
	if err != nil {
		return modelled{}, err
	}
	src.StartVCPU(vm, func(g *GuestEnv) error {
		for s := uint64(0); s < 20; s++ {
			for w := uint64(0); w < 3; w++ {
				if err := g.Write64(0x6000+w*0x1000, s); err != nil {
					return err
				}
			}
			g.Halt()
		}
		return nil
	})
	_, stats, err := LiveMigrate(src, vm, dst, MigrateConfig{})
	if err != nil {
		return modelled{}, err
	}
	return modelled{counts{"pages-sent": uint64(stats.PagesSent), "downtime-cycles": stats.DowntimeCycles}, nil}, nil
}
