package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fidelius/internal/telemetry"
)

// recorder measures one pass of a workload on both clocks. The host clock
// (time.Now) times the simulator itself; each platform's modelled cycle
// clock (Hub.Now) times what the simulated machine did. Around every timed
// call it also takes the platform registry's deltas, which feed the
// per-layer counts and the pass-to-pass reproduction check.
//
// A traced pass attaches a span tracer to every platform right after it
// boots, with the capacity the first untraced pass measured for that
// platform, and keeps the spans a workload asks for.
type recorder struct {
	traced bool
	caps   []int // traced: tracer capacity per platform, in boot order

	setup, run time.Duration
	host       map[string]time.Duration // host time per call label
	alloc      uint64                   // bytes allocated by the pass

	cycles    uint64           // modelled cycles of the timed calls
	counts    map[string]int64 // registry deltas summed over the timed calls
	model     map[string]float64
	samples   map[string][]uint64 // modelled per-operation values, in order
	attempted int
	failed    int
	gates     []string // correctness-gate failures

	// hubs maps the platforms in use to their boot index. A hub keeps its
	// whole machine reachable, so detach drops it.
	hubs     map[*telemetry.Hub]int
	booted   int
	needCaps []int                // untraced: tracer capacity each platform needs
	spans    map[string]spanTotal // traced: span families over all platforms

	// chromePath, when set, receives the Chrome trace of the platform
	// booted chromeIdx-th in a traced pass.
	chromePath string
	chromeIdx  int
}

// spanTotal counts one span family and sums its modelled duration.
type spanTotal struct {
	n      uint64
	cycles uint64
}

func newRecorder(traced bool, caps []int) *recorder {
	return &recorder{
		traced:  traced,
		caps:    caps,
		host:    map[string]time.Duration{},
		counts:  map[string]int64{},
		model:   map[string]float64{},
		samples: map[string][]uint64{},
		hubs:    map[*telemetry.Hub]int{},
		spans:   map[string]spanTotal{},
	}
}

// gate records a failed correctness check; the run then reports
// correct=false and exits non-zero.
func (r *recorder) gate(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

// timeSetup runs a set-up call on the host clock.
func (r *recorder) timeSetup(label string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.setup += d
	r.host[label] += d
	return err
}

// timeRun runs a timed call on both clocks. Hubs are the platforms the
// call drives; their cycle deltas add to the modelled total and their
// registry deltas to the counts.
func (r *recorder) timeRun(label string, hubs []*telemetry.Hub, fn func() error) error {
	before := make([]map[string]int64, len(hubs))
	c0 := make([]uint64, len(hubs))
	for i, h := range hubs {
		before[i] = flatten(h.Reg.Snapshot())
		c0[i] = h.Now()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.run += d
	r.host[label] += d
	for i, h := range hubs {
		r.cycles += h.Now() - c0[i]
		for k, v := range flatten(h.Reg.Snapshot()) {
			if dv := v - before[i][k]; dv != 0 {
				r.counts[k] += dv
			}
		}
	}
	return err
}

// flatten turns a registry snapshot into one map: counters and reader
// gauges by name, histograms as name.count and name.sum.
func flatten(s telemetry.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Counters)+len(s.Gauges)+2*len(s.Histograms))
	for k, v := range s.Counters {
		out[k] = int64(v)
	}
	for k, v := range s.Gauges {
		out[k] = int64(v)
	}
	for k, h := range s.Histograms {
		out[k+".count"] = int64(h.Count)
		out[k+".sum"] = int64(h.Sum)
	}
	return out
}

// attach registers a platform the pass has just booted.
func (r *recorder) attach(h *telemetry.Hub) {
	idx := r.booted
	r.booted++
	r.hubs[h] = idx
	if r.traced {
		h.StartTrace(r.caps[idx])
	}
}

// detach ends the pass's use of a platform. The untraced pass records the
// span capacity a traced pass will need for it, from the work it did: one
// span per quantum, SEV command, pool batch and served op, doubled, plus
// room for the scheduler, launch and migration scopes. The traced pass
// checks that every span fitted, folds the spans into the family totals
// and returns them.
func (r *recorder) detach(h *telemetry.Hub) ([]telemetry.Span, error) {
	idx, ok := r.hubs[h]
	if !ok {
		return nil, fmt.Errorf("detach of a platform the pass never attached")
	}
	delete(r.hubs, h)
	if !r.traced {
		s := flatten(h.Reg.Snapshot())
		work := s["cpu.vmruns"] + s["sev.commands"] + s["pool.jobs"] + s["serve.latency.count"]
		for len(r.needCaps) <= idx {
			r.needCaps = append(r.needCaps, 0)
		}
		r.needCaps[idx] = int(2*work) + 4096
		return nil, nil
	}
	if r.chromePath != "" && idx == r.chromeIdx {
		if err := writeChromeTrace(r.chromePath, h); err != nil {
			return nil, err
		}
	}
	tr := h.StopTrace()
	if total := tr.SpanTotal(); total > uint64(r.caps[idx]) {
		return nil, fmt.Errorf("platform %d recorded %d spans, more than the tracer's %d", idx, total, r.caps[idx])
	}
	spans := tr.Spans()
	for _, s := range spans {
		fam := s.Name
		if strings.HasPrefix(fam, "sev:") {
			fam = "sev"
		}
		t := r.spans[fam]
		t.n++
		t.cycles += s.End - s.Start
		r.spans[fam] = t
	}
	return spans, nil
}

// reproduces reports how a later pass differs from the first in anything
// modelled: the cycle total, every registry delta, every modelled result
// and every per-operation sample both passes took. Host-side contention
// counts (xen.lock_waits) depend on goroutine timing and are left out.
// The empty string means bit-for-bit equal.
func reproduces(first, p *recorder) string {
	var diffs []string
	if first.cycles != p.cycles {
		diffs = append(diffs, fmt.Sprintf("cycles %d != %d", p.cycles, first.cycles))
	}
	for _, k := range unionKeys(first.counts, p.counts) {
		if strings.HasPrefix(k, "xen.lock_waits") {
			continue
		}
		if first.counts[k] != p.counts[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d != %d", k, p.counts[k], first.counts[k]))
		}
	}
	for _, k := range unionKeys(first.model, p.model) {
		if first.model[k] != p.model[k] {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", k, p.model[k], first.model[k]))
		}
	}
	for k, a := range first.samples {
		b, ok := p.samples[k]
		if !ok {
			continue
		}
		if len(a) != len(b) {
			diffs = append(diffs, fmt.Sprintf("%s: %d samples != %d", k, len(b), len(a)))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				diffs = append(diffs, fmt.Sprintf("%s[%d] %d != %d", k, i, b[i], a[i]))
				break
			}
		}
	}
	if len(diffs) > 4 {
		diffs = append(diffs[:4], fmt.Sprintf("and %d more", len(diffs)-4))
	}
	return strings.Join(diffs, "; ")
}

// writeChromeTrace saves a platform's timeline, spans included, as Chrome
// trace_event JSON (chrome://tracing, Perfetto).
func writeChromeTrace(path string, h *telemetry.Hub) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := h.WriteChromeTrace(w); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// unionKeys returns the keys of both maps, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
