package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentHammer drives counters, gauges, histograms and the tracer
// from many goroutines at once. Run under -race this proves the lock-free
// paths are data-race free; the totals prove no increment is lost.
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	h := New(func() uint64 { return 42 })
	h.StartTrace(1 << 10)

	const workers = 8
	const perWorker = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hammer.count")
			g := reg.Gauge("hammer.gauge")
			hist := reg.Histogram("hammer.hist", CycleBuckets)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(w))
				hist.Observe(uint64(i))
				h.M.VMExits.Inc()
				h.Emit(KindVMExit, uint32(w), uint32(w), 100, uint64(i), 0)
			}
		}(w)
	}
	wg.Wait()

	const want = workers * perWorker
	if got := reg.Counter("hammer.count").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := reg.Gauge("hammer.gauge").Value(); got < 0 || got >= workers {
		t.Errorf("gauge = %d, want one worker's index", got)
	}
	hist := reg.Histogram("hammer.hist", CycleBuckets)
	if got := hist.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := h.M.VMExits.Value(); got != want {
		t.Errorf("hub vmexits = %d, want %d", got, want)
	}
	if tr := h.Trace(); uint64(len(tr.Events()))+tr.Dropped() != want {
		t.Errorf("tracer recorded %d+%d events, want %d", len(tr.Events()), tr.Dropped(), want)
	}
	// Snapshot while another goroutine keeps writing: must not race.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			reg.Counter("hammer.count").Inc()
		}
	}()
	for i := 0; i < 10; i++ {
		_ = reg.Snapshot()
	}
	<-done
}

// TestNilSafety exercises every nil-receiver no-op path: call sites never
// branch on whether telemetry is wired, so nil handles must be inert.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter not zero")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge not zero")
	}
	var hist *Histogram
	hist.Observe(7)
	if hist.Count() != 0 || hist.Sum() != 0 {
		t.Error("nil histogram not zero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", CycleBuckets) != nil {
		t.Error("nil registry returned non-nil handle")
	}
	r.RegisterFunc("x", func() uint64 { return 1 })
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var h *Hub
	if h.Tracing() {
		t.Error("nil hub claims tracing")
	}
	if h.Now() != 0 {
		t.Error("nil hub clock not zero")
	}
	h.Emit(KindGate1, 1, 1, 306, 0, 0)
	h.EmitDetail(KindViolation, 1, 1, 0, 0, 0, "x")
	h.NameVM(1, "vm")
	if len(h.VMNames()) != 0 {
		t.Error("nil hub has names")
	}
	if h.StartTrace(8) != nil || h.StopTrace() != nil || h.Trace() != nil {
		t.Error("nil hub returned tracer")
	}
	var tr *Tracer
	if tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer not inert")
	}
}

// TestTracerWraparound fills a small ring past capacity and checks that
// the retained window is the most recent events, oldest-first, with
// Dropped accounting for the rest.
func TestTracerWraparound(t *testing.T) {
	const capacity = 8
	tr := NewTracer(capacity)
	const total = 21
	for i := 0; i < total; i++ {
		tr.record(Event{Kind: KindGate1, Arg1: uint64(i)})
	}
	if got := tr.Dropped(); got != total-capacity {
		t.Errorf("Dropped = %d, want %d", got, total-capacity)
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("Events len = %d, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		wantArg := uint64(total - capacity + i)
		if e.Arg1 != wantArg {
			t.Errorf("event %d: Arg1 = %d, want %d", i, e.Arg1, wantArg)
		}
		if e.Seq != wantArg {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, wantArg)
		}
	}
}

// TestTracerUnderCapacity checks the pre-wrap path.
func TestTracerUnderCapacity(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 5; i++ {
		tr.record(Event{Arg1: uint64(i)})
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("Events len = %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Arg1 != uint64(i) {
			t.Errorf("event %d out of order: Arg1 = %d", i, e.Arg1)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]uint64{10, 100})
	for _, v := range []uint64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []uint64{2, 2, 2} // <=10, <=100, overflow
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], w)
		}
	}
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	if s.Sum != 1+10+11+100+101+5000 {
		t.Errorf("Sum = %d", s.Sum)
	}
	if m := s.Mean(); m < 870 || m > 871 {
		t.Errorf("Mean = %v", m)
	}
}

func TestMetricName(t *testing.T) {
	if got := MetricName("gate.type1"); got != "gate.type1" {
		t.Errorf("got %q", got)
	}
	if got := MetricName("blk.requests", "vm", "1", "op", "read"); got != "blk.requests{vm=1,op=read}" {
		t.Errorf("got %q", got)
	}
}

// TestRegistryFuncAndSnapshot checks that RegisterFunc readings land in
// the snapshot's gauges (external accounting served without duplication)
// and that the snapshot JSON round-trips.
func TestRegistryFuncAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.count").Add(7)
	reg.Gauge("a.gauge").Set(-3)
	ext := uint64(12345)
	reg.RegisterFunc("cycles.total", func() uint64 { return ext })
	reg.Histogram("a.hist", []uint64{10}).Observe(4)

	s := reg.Snapshot()
	if s.Counters["a.count"] != 7 {
		t.Errorf("counter = %d", s.Counters["a.count"])
	}
	if s.Gauges["cycles.total"] != 12345 {
		t.Errorf("func gauge = %d", s.Gauges["cycles.total"])
	}
	if s.Histograms["a.hist"].Count != 1 {
		t.Errorf("hist count = %d", s.Histograms["a.hist"].Count)
	}

	var buf strings.Builder
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["a.count"] != 7 || back.Gauges["cycles.total"] != 12345 {
		t.Error("round-tripped snapshot lost values")
	}

	var tbl strings.Builder
	if err := s.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"a.count", "cycles.total", "a.hist", "count=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestRegistrySameHandle checks registration is idempotent: the same name
// always yields the same handle, so two call sites share one count.
func TestRegistrySameHandle(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x", "vm", "1")
	b := reg.Counter("x", "vm", "1")
	if a != b {
		t.Error("same name produced distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("handles do not share state")
	}
}

// TestHubTraceLifecycle checks Start/Stop/Tracing transitions and that
// emission is a no-op when no tracer is attached.
func TestHubTraceLifecycle(t *testing.T) {
	clock := uint64(0)
	h := New(func() uint64 { return clock })
	if h.Tracing() {
		t.Error("fresh hub tracing")
	}
	h.Emit(KindGate1, 1, 1, 306, 0, 0) // must be dropped
	tr := h.StartTrace(0)
	if !h.Tracing() {
		t.Error("not tracing after StartTrace")
	}
	if len(tr.buf) != DefaultTraceCap {
		t.Errorf("default cap = %d", len(tr.buf))
	}
	clock = 1000
	h.EmitDetail(KindSEVCommand, 2, 3, 5000, 9, 0, "activate")
	got := h.StopTrace()
	if h.Tracing() {
		t.Error("still tracing after StopTrace")
	}
	evs := got.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.TS != 1000 || e.Kind != KindSEVCommand || e.VM != 2 || e.ASID != 3 ||
		e.Dur != 5000 || e.Arg1 != 9 || e.Detail != "activate" {
		t.Errorf("event mismatch: %+v", e)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindNone; k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("out-of-range kind: %q", Kind(200).String())
	}
	if KindGate2.Category() != "gate" || KindMemEncrypt.Category() != "mem" {
		t.Error("category mismatch")
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}
