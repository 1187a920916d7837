package main

import "strings"

// metric is one number the benchmark reports: its unit, which way is
// better, and how much worse it may get before a comparison calls it a
// regression.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the old value by which the metric may get
	// worse, or with Abs the absolute difference. 0 means any step.
	Bound float64
	Abs   bool
}

// endToEnd are the metrics every workload reports, the ones BENCHMARK.json
// lists (README.md defines them). The first four are host numbers, medians
// over the run's passes; model_mcyc is read off the modelled cycle clock.
// The host bounds cover the drift a shared machine shows between runs.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "model_mcyc", Unit: "Mcycles", Better: "lower", Bound: 0.15},
}

// workloadMetrics are the modelled headline numbers of single workloads
// (README.md defines them). They are printed and saved with -out, and
// -compare gates them; they are not in BENCHMARK.json, which lists only
// what every workload reports.
var workloadMetrics = []metric{
	{Name: "p50_mcyc.lo", Unit: "Mcycles", Better: "lower", Bound: 0.005},
	{Name: "p99_mcyc.lo", Unit: "Mcycles", Better: "lower", Bound: 0.005},
	{Name: "p50_mcyc.mid", Unit: "Mcycles", Better: "lower", Bound: 0.005},
	{Name: "p99_mcyc.mid", Unit: "Mcycles", Better: "lower", Bound: 0.005},
	{Name: "p50_mcyc.hi", Unit: "Mcycles", Better: "lower", Bound: 0.005},
	{Name: "p99_mcyc.hi", Unit: "Mcycles", Better: "lower", Bound: 0.005},
	{Name: "slo_rate", Unit: "ops/Mcycle", Better: "higher", Bound: 0},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 0, Abs: true},
	{Name: "paper_err_pct", Unit: "%", Better: "lower", Bound: 0.1, Abs: true},
	{Name: "launch_mcyc", Unit: "Mcycles", Better: "lower", Bound: 0.005},
	{Name: "downtime_kcyc.p50", Unit: "kcycles", Better: "lower", Bound: 0.005},
	{Name: "downtime_kcyc.p95", Unit: "kcycles", Better: "lower", Bound: 0.005},
}

// layerMetric is one per-layer number of a traced run, with the
// end-to-end metric and workload it should move.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// shareRows are the host-profile rows: the repository's packages that do
// measurable work, the Go runtime and the crypto packages. Every other
// package folds into "other", so the rows partition the samples.
var shareRows = []string{
	"hw", "cycles", "mmu", "cpu", "isa", "xen", "core", "sev", "parallel",
	"migrate", "kv", "disk", "serve", "telemetry", "workload",
	"crypto", "runtime", "other",
}

// shareMoves says which end-to-end number each host-share row feeds.
var shareMoves = map[string]string{
	"hw":        "run_s, paper_err_pct on paper-eval",
	"cycles":    "run_s on paper-eval",
	"mmu":       "run_s on paper-eval",
	"cpu":       "p50_mcyc.lo on serve-get",
	"isa":       "run_s on paper-eval",
	"xen":       "run_s on serve-get and serve-put",
	"core":      "run_s on serve-*, paper_err_pct on paper-eval",
	"sev":       "launch_mcyc, downtime_kcyc.* on vm-lifecycle",
	"parallel":  "run_s on vm-lifecycle",
	"migrate":   "run_s on vm-lifecycle",
	"kv":        "slo_rate on serve-put",
	"disk":      "run_s on serve-put",
	"serve":     "setup_s on serve-*",
	"telemetry": "run_s, alloc_mb on paper-eval",
	"workload":  "run_s on paper-eval",
	"crypto":    "run_s, alloc_mb on paper-eval",
	"runtime":   "run_s, alloc_mb on paper-eval",
	"other":     "run_s on all workloads",
}

// paperValues are the sixteen numbers the paper prints for its
// evaluation (EXPERIMENTS.md E1-E6), keyed by their per-layer name.
var paperValues = []struct {
	Key   string
	Paper float64
}{
	{"paper.gate1_cyc", 306},
	{"paper.gate2_cyc", 16},
	{"paper.gate3_cyc", 339},
	{"paper.shadow_cyc", 661},
	{"paper.fig5_mcf_enc_pct", 17.3},
	{"paper.fig5_omnetpp_enc_pct", 16.3},
	{"paper.fig5_enc_pct", 5.38},
	{"paper.fig6_fid_pct", 0.43},
	{"paper.fig6_enc_pct", 1.97},
	{"paper.fig6_canneal_enc_pct", 14.27},
	{"paper.table3_rand-read_pct", 1.38},
	{"paper.table3_seq-read_pct", 22.91},
	{"paper.table3_rand-write_pct", 0.70},
	{"paper.table3_seq-write_pct", 3.61},
	{"paper.aesni_pct", 11.49},
	{"paper.sev_pct", 8.69},
}

// layerMetrics lists every per-layer metric a traced run reports, for
// every workload (a layer a workload does not touch reads 0).
var layerMetrics = func() []layerMetric {
	var out []layerMetric
	for _, row := range shareRows {
		out = append(out, layerMetric{row + ".host_share", "%", "lower", shareMoves[row]})
	}
	out = append(out, []layerMetric{
		{"runtime.gc_share", "%", "lower", "run_s, alloc_mb on paper-eval"},
		{"hw.mem_accesses", "count", "lower", "run_s, paper_err_pct on paper-eval"},
		{"hw.dec_lines", "count", "lower", "run_s, paper_err_pct on paper-eval"},
		{"hw.enc_lines", "count", "lower", "run_s, paper_err_pct on paper-eval"},
		{"hw.cache_hit_ratio", "ratio", "higher", "run_s, paper_err_pct on paper-eval"},
		{"mmu.tlb_hit_ratio", "ratio", "higher", "run_s on paper-eval"},
		{"mmu.npt_walks", "count", "lower", "run_s on paper-eval"},
		{"mmu.tlb_flushes", "count", "lower", "run_s on paper-eval"},
		{"cpu.vmexits", "count", "lower", "p50_mcyc.lo on serve-get"},
		{"cpu.exit_cycles_mean", "cycles", "lower", "p50_mcyc.lo on serve-get"},
		{"xen.quanta", "count", "lower", "run_s on serve-get and serve-put"},
		{"xen.host_us_per_quantum", "us", "lower", "run_s on serve-get and serve-put"},
		{"xen.hypercalls", "count", "lower", "run_s on serve-get and serve-put"},
		{"xen.evt_signals", "count", "lower", "run_s on serve-get and serve-put"},
		{"xen.blk_requests", "count", "lower", "p99_mcyc.mid on serve-put"},
		{"xen.blk_sectors", "count", "lower", "p99_mcyc.mid on serve-put"},
		{"xen.seeks_read", "count", "lower", "p99_mcyc.mid on serve-put"},
		{"xen.seeks_write", "count", "lower", "p99_mcyc.mid on serve-put"},
		{"xen.boot_host_ms", "ms", "lower", "setup_s on all workloads"},
		{"xen.lock_waits", "count", "lower", "expected 0"},
		{"core.gate1", "count", "lower", "run_s on serve-*, paper_err_pct on paper-eval"},
		{"core.gate2", "count", "lower", "run_s on serve-*, paper_err_pct on paper-eval"},
		{"core.gate3", "count", "lower", "run_s on serve-*, paper_err_pct on paper-eval"},
		{"core.shadows", "count", "lower", "run_s on serve-*, paper_err_pct on paper-eval"},
		{"core.launch_host_ms", "ms", "lower", "launch_mcyc on vm-lifecycle, setup_s on serve-*"},
		{"core.launch_kcyc", "kcycles", "lower", "launch_mcyc on vm-lifecycle, setup_s on serve-*"},
		{"sev.commands", "count", "lower", "launch_mcyc, downtime_kcyc.* on vm-lifecycle"},
		{"sev.cmd_kcyc", "kcycles", "lower", "launch_mcyc, downtime_kcyc.* on vm-lifecycle"},
		{"sev.asid_flushes", "count", "lower", "launch_mcyc, downtime_kcyc.* on vm-lifecycle"},
		{"parallel.pool_jobs", "count", "lower", "run_s on vm-lifecycle"},
		{"migrate.host_ms", "ms", "lower", "downtime_kcyc.*, run_s on vm-lifecycle"},
		{"migrate.rounds", "count", "lower", "downtime_kcyc.*, run_s on vm-lifecycle"},
		{"migrate.pages_sent", "count", "lower", "downtime_kcyc.*, run_s on vm-lifecycle"},
		{"migrate.round_kcyc", "kcycles", "lower", "downtime_kcyc.*, run_s on vm-lifecycle"},
		{"kv.group_commits", "count", "lower", "slo_rate on serve-put"},
		{"kv.seq_writes", "count", "higher", "slo_rate on serve-put"},
		{"kv.seeks_per_put", "ratio", "lower", "slo_rate on serve-put"},
		{"kv.sectors_per_put", "ratio", "lower", "slo_rate on serve-put"},
		{"kv.compactions", "count", "lower", "p99_mcyc.* on serve-put"},
		{"kv.compact_reclaimed", "count", "higher", "p99_mcyc.* on serve-put"},
		{"kv.cache_hit_ratio", "ratio", "higher", "p50_mcyc.* on serve-get"},
		{"serve.setup_host_ms", "ms", "lower", "setup_s on serve-*"},
		{"serve.holds", "count", "lower", "p50_mcyc.mid, slo_rate on serve-put"},
		{"serve.batch_depth_mean", "ops", "higher", "p50_mcyc.mid, slo_rate on serve-put"},
		{"serve.goodput.lo", "ops/Mcycle", "higher", "slo_rate on serve-*"},
		{"serve.goodput.mid", "ops/Mcycle", "higher", "slo_rate on serve-*"},
		{"serve.goodput.hi", "ops/Mcycle", "higher", "slo_rate on serve-*"},
		{"serve.timeouts", "count", "lower", "slo_rate on serve-*"},
		{"telemetry.trace_overhead", "ratio", "lower", "run_s of a traced run over the untraced median"},
		{"workload.run_host_ms", "ms", "lower", "run_s on paper-eval"},
		{"workload.fio_host_ms", "ms", "lower", "run_s on paper-eval"},
	}...)
	// Every paper value is a cost (cycles or an overhead), so lower is
	// cheaper; closeness to the paper is what paper_err_pct judges.
	for _, p := range paperValues {
		out = append(out, layerMetric{p.Key, paperUnit(p.Key), "lower", "paper_err_pct on paper-eval"})
	}
	return out
}()

func paperUnit(key string) string {
	if strings.HasSuffix(key, "_cyc") {
		return "cycles"
	}
	return "%"
}
