package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickWorkloads runs every workload in quick mode, plain and traced,
// so harness bit-rot shows up in go test: each run must pass its
// correctness gates and report every metric it promises.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{seed: 1, quick: true, trace: trace, traceDir: t.TempDir()}
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d gates=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Gates)
			}
			if !trace {
				for _, m := range endToEnd {
					if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %+v, want a positive value", w.name, m.Name, v)
					}
				}
				checkLastLine(t, res, endToEnd[0].Name)
				continue
			}
			var share float64
			for _, m := range layerMetrics {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s: per-layer metric %s missing", w.name, m.Name)
				}
				if strings.HasSuffix(m.Name, ".host_share") {
					share += res.Metrics[m.Name].Value
				}
			}
			if math.Abs(share-100) > 1 {
				t.Errorf("%s: host shares sum to %.2f%%, want 100 +- 1", w.name, share)
			}
			for _, ext := range []string{".cpu.pprof", ".trace.json", ".layers.json"} {
				if _, err := os.Stat(filepath.Join(o.traceDir, w.name+ext)); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
			checkLastLine(t, res, layerMetrics[0].Name)
		}
	}
}

// checkLastLine checks the printed report ends with the one-line JSON
// result, with exactly the result keys.
func checkLastLine(t *testing.T, res *result, metric string) {
	t.Helper()
	var out bytes.Buffer
	if err := report(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var line map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", res.Workload, err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("%s: last line lacks %q", res.Workload, k)
		}
	}
	if len(line) != 4 || !bytes.Contains(line["metrics"], []byte(`"`+metric+`"`)) {
		t.Errorf("%s: unexpected last line %s", res.Workload, lines[len(lines)-1])
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the benchmark prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric      `json:"end_to_end"`
		PerLayer  []layerMetric `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.Name || s.Unit != m.Unit || s.Better != m.Better || s.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, s, m)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		s := spec.PerLayer[i]
		if s.Name != m.Name || s.Unit != m.Unit || s.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, s, m)
		}
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		m        metric
		old, cur float64
		worse    bool
	}{
		{metric{Better: "lower", Bound: 0.1}, 100, 109, false},
		{metric{Better: "lower", Bound: 0.1}, 100, 111, true},
		{metric{Better: "lower", Bound: 0.1}, 100, 50, false},
		{metric{Better: "higher", Bound: 0}, 12, 11.2, true},
		{metric{Better: "higher", Bound: 0}, 12, 12, false},
		{metric{Better: "lower", Bound: 0, Abs: true}, 0, 0.001, true},
		{metric{Better: "lower", Bound: 0.1, Abs: true}, 13.3, 13.35, false},
		{metric{Better: "lower", Bound: 0.1, Abs: true}, 13.3, 13.5, true},
	} {
		if _, worse := judge(c.m, c.old, c.cur); worse != c.worse {
			t.Errorf("judge(%+v, %v -> %v) worse=%v, want %v", c.m, c.old, c.cur, worse, c.worse)
		}
	}
}

func TestShareRow(t *testing.T) {
	for fn, row := range map[string]string{
		"fidelius/internal/hw.(*Controller).Read":       "hw",
		"fidelius/internal/kv.(*Store).Apply.func1":     "kv",
		"fidelius/internal/attack.Run":                  "other",
		"fidelius.LiveMigrate.func1":                    "other",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":  "runtime",
		"crypto/internal/fips140/aes.encryptBlockAsm":   "crypto",
		"vendor/golang.org/x/crypto/chacha20.(*Cipher)": "crypto",
		"sync.(*Mutex).Lock":                            "other",
		"main.main":                                     "other",
		"":                                              "other",
	} {
		if got := shareRow(fn); got != row {
			t.Errorf("shareRow(%q) = %q, want %q", fn, got, row)
		}
	}
	if got := leafFrame([]string{"sync/atomic.(*Uint64).Add", "fidelius/internal/cycles.(*Counter).Charge"}); got != "fidelius/internal/cycles.(*Counter).Charge" {
		t.Errorf("leafFrame skipped to %q", got)
	}
}
