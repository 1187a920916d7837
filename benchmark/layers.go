package main

import (
	"strings"
	"time"
)

// Functions whose inclusive CPU samples give the host time of a layer
// that has no call of its own in the benchmark: launches happen inside
// NewServeService too, and LiveMigrate runs its receiving end on a
// goroutine of its own.
const (
	launchFunc  = "fidelius/internal/core.(*Fidelius).LaunchVM"
	migrateFunc = "fidelius.LiveMigrate"
)

// layerInput is everything a traced run measured.
type layerInput struct {
	passes []*recorder // the profiled passes; the first gives the counts
	traced *recorder   // the span-traced pass
	prof   *cpuProfile
}

// layerValues computes every per-layer metric. Counts are registry deltas
// of the first pass (they reproduce in every pass); host times are medians
// over the profiled passes; span rows come from the traced pass.
func layerValues(in layerInput, extra func(first *recorder, v map[string]float64)) map[string]float64 {
	first, tr, prof := in.passes[0], in.traced, in.prof
	c := func(k string) float64 { return float64(first.counts[k]) }
	hostMS := func(label string) float64 {
		return medianOf(in.passes, func(r *recorder) float64 { return ms(r.host[label]) })
	}
	profMS := func(fn string) float64 {
		return float64(prof.under[fn]) * float64(prof.periodNS) / 1e6 / float64(len(in.passes))
	}
	runMedian := medianOf(in.passes, func(r *recorder) float64 { return r.run.Seconds() })

	v := map[string]float64{}
	for _, row := range shareRows {
		v[row+".host_share"] = 100 * ratio(float64(prof.leaf[row]), float64(prof.total))
	}
	v["runtime.gc_share"] = 100 * ratio(float64(prof.gc), float64(prof.total))

	v["hw.mem_accesses"] = c("mem.reads") + c("mem.writes")
	v["hw.dec_lines"] = c("mem.dec_lines")
	v["hw.enc_lines"] = c("mem.enc_lines")
	v["hw.cache_hit_ratio"] = ratio(c("cache.hits"), c("cache.hits")+c("cache.misses"))
	v["mmu.tlb_hit_ratio"] = ratio(c("tlb.hits"), c("tlb.hits")+c("tlb.misses"))
	v["mmu.npt_walks"] = c("mmu.npt_walks")
	v["mmu.tlb_flushes"] = c("tlb.entry_flushes") + c("tlb.full_flushes") + c("tlb.asid_flushes")
	v["cpu.vmexits"] = c("cpu.vmexits")
	v["cpu.exit_cycles_mean"] = ratio(c("vmexit.cycles.sum"), c("vmexit.cycles.count"))

	quanta := float64(tr.spans["quantum"].n)
	v["xen.quanta"] = quanta
	v["xen.host_us_per_quantum"] = ratio(runMedian*1e6, quanta)
	v["xen.hypercalls"] = c("xen.hypercalls")
	v["xen.evt_signals"] = c("evt.signals")
	v["xen.blk_requests"] = c("blk.requests")
	v["xen.blk_sectors"] = c("blk.sectors")
	v["xen.seeks_read"] = c("xen.disk_seeks{kind=read}")
	v["xen.seeks_write"] = c("xen.disk_seeks{kind=write}")
	v["xen.boot_host_ms"] = hostMS("boot")
	for k, n := range first.counts {
		if strings.HasPrefix(k, "xen.lock_waits") {
			v["xen.lock_waits"] += float64(n)
		}
	}

	v["core.gate1"] = c("gate.type1")
	v["core.gate2"] = c("gate.type2")
	v["core.gate3"] = c("gate.type3")
	v["core.shadows"] = c("vmcb.shadows")
	v["core.launch_host_ms"] = profMS(launchFunc)
	launch := tr.spans["launch-vm"]
	v["core.launch_kcyc"] = ratio(float64(launch.cycles), float64(launch.n)) / 1e3

	v["sev.commands"] = c("sev.commands")
	v["sev.cmd_kcyc"] = float64(tr.spans["sev"].cycles) / 1e3
	v["sev.asid_flushes"] = c("sev.asid_flushes")
	v["parallel.pool_jobs"] = c("pool.jobs")

	v["migrate.host_ms"] = profMS(migrateFunc)
	v["migrate.rounds"] = sumU(first.samples["rounds"])
	v["migrate.pages_sent"] = sumU(first.samples["pages_sent"])
	round := tr.spans["migrate-round"]
	v["migrate.round_kcyc"] = ratio(float64(round.cycles), float64(round.n)) / 1e3

	var mutations float64
	for k, x := range first.model {
		if strings.HasSuffix(k, ".mutations") {
			mutations += x
		}
	}
	v["kv.group_commits"] = c("kv.group_commits")
	v["kv.seq_writes"] = c("kv.seq_writes")
	v["kv.seeks_per_put"] = ratio(c("xen.disk_seeks{kind=write}"), mutations)
	v["kv.sectors_per_put"] = ratio(c("blk.sectors"), mutations)
	v["kv.compactions"] = c("kv.compactions")
	v["kv.compact_reclaimed"] = c("kv.compact_reclaimed")
	v["kv.cache_hit_ratio"] = ratio(c("kv.cache_hits"), c("kv.cache_hits")+c("kv.cache_misses"))

	v["serve.setup_host_ms"] = hostMS("serve-setup")
	v["serve.holds"] = c("serve.holds")
	v["serve.batch_depth_mean"] = ratio(c("serve.batch_depth.sum"), c("serve.batch_depth.count"))
	v["serve.timeouts"] = c("serve.timeouts")
	v["serve.goodput.lo"], v["serve.goodput.mid"], v["serve.goodput.hi"] = 0, 0, 0

	v["telemetry.trace_overhead"] = ratio(tr.run.Seconds(), runMedian)
	v["workload.run_host_ms"] = hostMS("workload")
	v["workload.fio_host_ms"] = hostMS("fio")
	for _, p := range paperValues {
		v[p.Key] = first.model[p.Key]
	}
	if extra != nil {
		extra(first, v)
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sumU(xs []uint64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s
}

// medianOf is the median of one host number over the passes.
func medianOf(passes []*recorder, f func(*recorder) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	_, med, _ := quartiles(xs)
	return med
}
