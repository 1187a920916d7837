// Command benchmark measures the Fidelius reproduction end to end and
// layer by layer, on both of its clocks: the modelled cycle clock that
// carries every paper and serving number, and the host wall clock that
// decides how fast the simulator runs. It drives four workloads through
// the repository's public entry points, checks that their outputs are
// correct, and prints every metric by name with its unit, ending with one
// JSON line.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload serve-put --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all -out results.json
//	bash benchmark/run.sh --workload vm-lifecycle --trace 1 --tracedir .bench_build/trace
//	bash benchmark/run.sh -compare old.json new.json
//
// A plain run repeats untraced passes of a fixed size for --seconds (at
// least three) and reports the end-to-end metrics: host numbers as the
// median over passes, modelled numbers from pass 1, which every later pass
// must reproduce bit for bit. A traced run (--trace 1) profiles the passes
// with runtime/pprof, adds one span-traced pass, and reports the per-layer
// metrics. See README.md for the metrics and workloads.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the settings of one run.
type options struct {
	seed     int64
	seconds  time.Duration
	quick    bool
	trace    bool
	traceDir string
}

// minPasses is the least number of untraced passes a run makes, however
// short --seconds is: enough for a median and a reproduction check.
func (o options) minPasses() int {
	if o.quick {
		return 2
	}
	return 3
}

// workloadDef is one workload: what a pass does and what it reports.
type workloadDef struct {
	name string
	why  string
	pass func(*recorder, options) error
	// replay: a plain run ends with one span-traced pass, whose spans give
	// exact per-op latencies.
	replay bool
	// check runs once after the passes, against the first one.
	check func(first *recorder, o options) error
	// metrics adds the workload's modelled headline numbers.
	metrics func(first, traced *recorder, o options, out map[string]float64)
	// layers adds workload-specific per-layer rows.
	layers func(first *recorder, v map[string]float64)
	// chromeTrace is the boot index of the platform whose timeline a
	// traced run writes as <workload>.trace.json.
	chromeTrace func(o options) int
}

var workloads = []workloadDef{
	{
		name:  "paper-eval",
		why:   "the paper's own Fig 5/6, Table 3 and micro-benchmarks: the heaviest hw engine, cache, mmu and cycles load, no kv, serving or migration",
		pass:  paperPass,
		check: checkPaperLibrary,
		metrics: func(first, _ *recorder, _ options, out map[string]float64) {
			out["paper_err_pct"] = first.model["paper_err_pct"]
		},
		chromeTrace: paperChromeTrace,
	},
	{
		name:        "serve-put",
		why:         "open-loop 70% put over 128 live keys per tenant: group commit, the coalescer, blkio seeks, compaction and the adaptive hold",
		pass:        putHeavy.pass,
		replay:      true,
		metrics:     putHeavy.metrics,
		layers:      putHeavy.layers,
		chromeTrace: putHeavy.chromeTrace,
	},
	{
		name:        "serve-get",
		why:         "open-loop 93% get over 48 hot keys per tenant that fit the read cache: the overlay, cache and index read path, rare commits",
		pass:        getHeavy.pass,
		replay:      true,
		metrics:     getHeavy.metrics,
		layers:      getHeavy.layers,
		chromeTrace: getHeavy.chromeTrace,
	},
	{
		name:        "vm-lifecycle",
		why:         "closed-loop launch, attest, live-migrate and shutdown: SEV firmware commands, bulk page crypto and the pre-copy engine",
		pass:        lifecyclePass,
		metrics:     lifecycleMetrics,
		chromeTrace: func(options) int { return 0 }, // the source platform
	},
}

// value is one reported number. Host numbers carry the quartiles of their
// per-pass values; modelled numbers are exact.
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	Exact bool     `json:"exact,omitempty"`
}

// result is one workload's run, as -out saves it and -compare reads it.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Passes    int              `json:"passes"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Gates     []string         `json:"gates,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "paper-eval, serve-put, serve-get, vm-lifecycle or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (serve arrivals and op scripts, lifecycle working sets)")
	seconds := flag.Float64("seconds", 20, "how long the untraced passes run")
	trace := flag.Int("trace", 0, "1: profile the passes, add a span-traced pass and report the per-layer metrics")
	traceDir := flag.String("tracedir", filepath.Join(".bench_build", "trace"), "where a traced run writes <workload>.cpu.pprof, .trace.json and .layers.json")
	quick := flag.Bool("quick", false, "shrink every workload to about a second: one ladder point, 8 lifetimes, one Fig 5 profile")
	out := flag.String("out", "", "also write the full results, quartiles included, to this JSON file")
	compareMode := flag.Bool("compare", false, "compare two -out files: benchmark -compare OLD.json NEW.json")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark description -compare takes bounds from")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare OLD.json NEW.json")
			os.Exit(2)
		}
		regressed, err := compare(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "--trace takes 0 or 1")
		os.Exit(2)
	}
	o := options{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		quick:    *quick,
		trace:    *trace == 1,
		traceDir: *traceDir,
	}
	var chosen []workloadDef
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}

	ok := true
	all := map[string]*result{}
	for _, w := range chosen {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			os.Exit(1)
		}
		all[w.name] = res
		ok = ok && res.Correct
		if err := report(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload makes one run of a workload.
func runWorkload(w workloadDef, o options) (*result, error) {
	var profPath string
	var passes []*recorder
	var err error
	if o.trace {
		profPath = filepath.Join(o.traceDir, w.name+".cpu.pprof")
		passes, err = profiledPasses(w, o, profPath)
	} else {
		passes, err = untracedPasses(w, o)
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	first := passes[0]

	var traced *recorder
	if o.trace || w.replay {
		traced = newRecorder(true, first.needCaps)
		if o.trace {
			traced.chromeIdx = w.chromeTrace(o)
			traced.chromePath = filepath.Join(o.traceDir, w.name+".trace.json")
		}
		if err := w.pass(traced, o); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if d := reproduces(first, traced); d != "" {
			first.gate("the traced pass did not reproduce pass 1: %s", d)
		}
	}
	if w.check != nil {
		if err := w.check(first, o); err != nil {
			return nil, fmt.Errorf("library check: %w", err)
		}
	}

	res := &result{Workload: w.name, Seed: o.seed, Passes: len(passes), Traced: o.trace, Metrics: map[string]value{}}
	for _, r := range append(append([]*recorder{}, passes...), traced) {
		if r == nil {
			continue
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Gates = append(res.Gates, r.gates...)
	}
	res.Correct = len(res.Gates) == 0

	if o.trace {
		prof, err := readCPUProfile(profPath, []string{launchFunc, migrateFunc})
		if err != nil {
			return nil, err
		}
		v := layerValues(layerInput{passes: passes, traced: traced, prof: prof}, w.layers)
		for _, m := range layerMetrics {
			res.Metrics[m.Name] = value{Value: v[m.Name], Unit: m.Unit}
		}
		if err := writeLayers(filepath.Join(o.traceDir, w.name+".layers.json"), res); err != nil {
			return nil, err
		}
		return res, nil
	}

	host := func(name string, f func(*recorder) float64) {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		q1, med, q3 := quartiles(xs)
		res.Metrics[name] = value{Value: med, Unit: unitOf(name), Q1: &q1, Q3: &q3}
	}
	host("setup_s", func(r *recorder) float64 { return r.setup.Seconds() })
	host("run_s", func(r *recorder) float64 { return r.run.Seconds() })
	host("alloc_mb", func(r *recorder) float64 { return float64(r.alloc) / 1e6 })
	res.Metrics["rss_peak_mb"] = value{Value: float64(rss) / 1e6, Unit: "MB"}
	res.Metrics["model_mcyc"] = value{Value: float64(first.cycles) / 1e6, Unit: "Mcycles", Exact: true}

	extra := map[string]float64{"fail_frac": ratio(float64(first.failed), float64(first.attempted))}
	w.metrics(first, traced, o, extra)
	for name, x := range extra {
		res.Metrics[name] = value{Value: finite(x), Unit: unitOf(name), Exact: true}
	}
	return res, nil
}

// untracedPasses repeats the workload's pass until --seconds have passed
// (and at least minPasses times), checking that every pass reproduces the
// first's modelled results.
func untracedPasses(w workloadDef, o options) ([]*recorder, error) {
	var passes []*recorder
	start := time.Now()
	for len(passes) < o.minPasses() || time.Since(start) < o.seconds {
		// Every pass starts from a collected heap, so one pass's garbage
		// is not collected on the next one's time.
		runtime.GC()
		r := newRecorder(false, nil)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := w.pass(r, o)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		r.alloc = m1.TotalAlloc - m0.TotalAlloc
		if len(passes) > 0 {
			if d := reproduces(passes[0], r); d != "" {
				r.gate("pass %d did not reproduce pass 1: %s", len(passes)+1, d)
			}
		}
		passes = append(passes, r)
	}
	return passes, nil
}

// profiledPasses runs the untraced passes under the CPU profiler.
func profiledPasses(w workloadDef, o options, path string) ([]*recorder, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	passes, err := untracedPasses(w, o)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: %w", path, cerr)
	}
	return passes, err
}

// peakRSS reads the process's peak resident set (VmHWM) in bytes.
func peakRSS() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// unitOf finds a metric's unit in the tables.
func unitOf(name string) string {
	for _, m := range append(append([]metric{}, endToEnd...), workloadMetrics...) {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range layerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// report prints a run: every metric by name with its unit and how it was
// measured, any failed correctness gate, and last the one-line JSON
// result, which holds the end-to-end metrics of a plain run or the
// per-layer metrics of a traced one.
func report(w io.Writer, res *result) error {
	bw := bufio.NewWriter(w)
	mode := "plain"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(bw, "== %s  seed %d  %s run, %d untraced passes\n", res.Workload, res.Seed, mode, res.Passes)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		how := "host, median over passes"
		switch {
		case m.Exact:
			how = "modelled, exact"
		case m.Q1 != nil:
			how = fmt.Sprintf("host, median over passes [q1 %.6g, q3 %.6g]", *m.Q1, *m.Q3)
		case res.Traced:
			how = ""
		}
		fmt.Fprintf(bw, "  %-28s %16.6g %-10s %s\n", name, m.Value, m.Unit, how)
	}
	fmt.Fprintf(bw, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, g := range res.Gates {
		fmt.Fprintf(bw, "  GATE FAILED: %s\n", g)
	}

	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]map[string]any{}}
	var want []string
	if res.Traced {
		for _, m := range layerMetrics {
			want = append(want, m.Name)
		}
	} else {
		for _, m := range endToEnd {
			want = append(want, m.Name)
		}
	}
	for _, name := range want {
		m := res.Metrics[name]
		line.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", b)
	return bw.Flush()
}

// finite maps +Inf (a quantile that fell on a missing op or lifetime) to
// the largest float, which JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeLayers saves a traced run's per-layer metrics with the end-to-end
// metric each should move.
func writeLayers(path string, res *result) error {
	type row struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Moves string  `json:"moves"`
	}
	rows := map[string]row{}
	for _, m := range layerMetrics {
		rows[m.Name] = row{res.Metrics[m.Name].Value, m.Unit, m.Moves}
	}
	return writeJSON(path, map[string]any{"workload": res.Workload, "seed": res.Seed, "layers": rows})
}
