package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// ---- causal spans -------------------------------------------------------

// clockHub returns a hub whose clock the test advances by hand.
func clockHub() (*Hub, *uint64) {
	now := new(uint64)
	return New(func() uint64 { return *now }), now
}

func TestSpanScopeNesting(t *testing.T) {
	h, now := clockHub()
	h.StartTrace(64)

	outer := h.OpenScope("outer", 1, 7)
	if outer.ID() == 0 {
		t.Fatal("scoped span got no identity")
	}
	*now = 10
	inner := h.OpenScope("inner", 1, 7).Attr("k", "v")
	if got := inner.ID(); got == outer.ID() {
		t.Fatal("inner span reused outer's identity")
	}
	if h.Ambient() != inner.ID() {
		t.Fatalf("ambient = %d, want inner %d", h.Ambient(), inner.ID())
	}
	*now = 20
	inner.Close()
	if h.Ambient() != outer.ID() {
		t.Fatalf("ambient after inner close = %d, want outer %d", h.Ambient(), outer.ID())
	}
	*now = 30
	outer.Close()
	if h.Ambient() != 0 {
		t.Fatalf("ambient after outer close = %d, want 0", h.Ambient())
	}

	spans := h.Trace().Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Close order: inner first.
	in, out := spans[0], spans[1]
	if in.Name != "inner" || out.Name != "outer" {
		t.Fatalf("span order wrong: %q, %q", in.Name, out.Name)
	}
	if in.Parent != out.ID {
		t.Errorf("inner parent = %d, want %d", in.Parent, out.ID)
	}
	if out.Parent != 0 {
		t.Errorf("outer parent = %d, want root", out.Parent)
	}
	if in.Start != 10 || in.End != 20 {
		t.Errorf("inner interval = [%d,%d], want [10,20]", in.Start, in.End)
	}
	if len(in.Attrs) != 1 || in.Attrs[0] != (Attr{"k", "v"}) {
		t.Errorf("inner attrs = %v", in.Attrs)
	}
	if in.VM != 1 || in.ASID != 7 {
		t.Errorf("inner vm/asid = %d/%d, want 1/7", in.VM, in.ASID)
	}
}

func TestSpanExplicitParentAndComplete(t *testing.T) {
	h, now := clockHub()
	h.StartTrace(64)

	parent := h.OpenScope("session", 0, 0)
	child := h.OpenSpan("quantum", 2, 9, parent.ID())
	// Explicit-parent spans must not disturb the ambient register.
	if h.Ambient() != parent.ID() {
		t.Fatalf("OpenSpan moved the ambient register to %d", h.Ambient())
	}
	*now += 100
	child.Close()
	h.CompleteSpan("sev:activate", 2, 9, parent.ID(), 5, 25, Attr{"cmd", "activate"})
	parent.Close()

	spans := h.Trace().Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	q, sev := spans[0], spans[1]
	if q.Parent != parent.ID() || sev.Parent != parent.ID() {
		t.Errorf("parents = %d,%d, want both %d", q.Parent, sev.Parent, parent.ID())
	}
	if q.End != q.Start+100 {
		t.Errorf("quantum end = %d, want start+100", q.End)
	}
	if sev.Start != 5 || sev.End != 25 {
		t.Errorf("CompleteSpan interval = [%d,%d], want [5,25]", sev.Start, sev.End)
	}
}

// TestSpanRingSurvivesEventFlood pins the design point that spans live in
// their own ring: an event flood must not evict the causal skeleton.
func TestSpanRingSurvivesEventFlood(t *testing.T) {
	h, _ := clockHub()
	h.StartTrace(8)
	sp := h.OpenScope("root", 0, 0)
	for i := 0; i < 1000; i++ {
		h.Emit(KindVMExit, 1, 1, 10, 0, 0)
	}
	sp.Close()
	spans := h.Trace().Spans()
	if len(spans) != 1 || spans[0].Name != "root" {
		t.Fatalf("span ring lost the root span: %v", spans)
	}
	if got := h.Trace().SpanTotal(); got != 1 {
		t.Fatalf("span total = %d, want 1", got)
	}
}

func TestSpanWraparound(t *testing.T) {
	h, _ := clockHub()
	h.StartTrace(4)
	for i := 0; i < 10; i++ {
		h.OpenSpan(fmt.Sprintf("s%d", i), 0, 0, 0).Close()
	}
	spans := h.Trace().Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want capacity 4", len(spans))
	}
	if spans[0].Name != "s6" || spans[3].Name != "s9" {
		t.Fatalf("ring kept wrong window: %q..%q", spans[0].Name, spans[3].Name)
	}
	if got := h.Trace().SpanTotal(); got != 10 {
		t.Fatalf("span total = %d, want 10", got)
	}
}

// TestDisabledFlightRecorderAllocFree proves the disabled span and ledger
// paths allocate nothing — the property the <5% hot-path overhead guard
// in internal/hw depends on.
func TestDisabledFlightRecorderAllocFree(t *testing.T) {
	h, _ := clockHub() // no tracer, no ledger
	allocs := testing.AllocsPerRun(200, func() {
		sp := h.OpenScope("off", 1, 1)
		sp.Attr("k", "v")
		sp.Close()
		h.OpenSpan("off", 1, 1, 0).Close()
		h.CompleteSpan("off", 1, 1, 0, 0, 10)
		h.Audit("off", 1, "no ledger armed")
	})
	if allocs != 0 {
		t.Fatalf("disabled flight-recorder path allocates %.1f objects/op, want 0", allocs)
	}
}

// ---- quantile estimator -------------------------------------------------

func TestHistogramQuantile(t *testing.T) {
	// Bounds 10/100/1000 with an overflow bucket.
	bounds := []uint64{10, 100, 1000}
	tests := []struct {
		name    string
		buckets []uint64 // len(bounds)+1
		count   uint64
		q       float64
		want    float64
	}{
		{"empty", []uint64{0, 0, 0, 0}, 0, 0.99, 0},
		{"single bucket median", []uint64{4, 0, 0, 0}, 4, 0.50, 5},  // rank 2 of 4 in (0,10]
		{"single bucket p100", []uint64{4, 0, 0, 0}, 4, 1.0, 10},    // rank 4 → bucket top
		{"second bucket", []uint64{2, 2, 0, 0}, 4, 0.75, 55},        // rank 3 → halfway into (10,100]
		{"overflow saturates", []uint64{0, 0, 0, 5}, 5, 0.99, 1000}, // no upper bound: last finite bound
		{"mixed tail in overflow", []uint64{8, 0, 0, 2}, 10, 0.95, 1000},
		{"q clamped low", []uint64{4, 0, 0, 0}, 4, -1, 2.5}, // rank floor 1 of 4
		{"q clamped high", []uint64{4, 0, 0, 0}, 4, 2, 10},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := HistogramSnapshot{Bounds: bounds, Buckets: tc.buckets, Count: tc.count}
			if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

func TestHistogramFracAtMost(t *testing.T) {
	bounds := []uint64{10, 100}
	tests := []struct {
		name    string
		buckets []uint64
		count   uint64
		v       float64
		want    float64
	}{
		{"empty is vacuously within", []uint64{0, 0, 0}, 0, 50, 1},
		{"all below", []uint64{4, 0, 0}, 4, 10, 1},
		{"half of straddled bucket", []uint64{0, 4, 0}, 4, 55, 0.5},
		{"overflow counts above", []uint64{2, 0, 2}, 4, 1e9, 0.5},
		{"below first bucket", []uint64{4, 0, 0}, 4, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := HistogramSnapshot{Bounds: bounds, Buckets: tc.buckets, Count: tc.count}
			if got := s.FracAtMost(tc.v); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("FracAtMost(%v) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}

// ---- audit ledger -------------------------------------------------------

func TestLedgerAppendAndVerify(t *testing.T) {
	var now uint64
	l := NewLedger(func() uint64 { now += 7; return now })
	for i := 0; i < 5; i++ {
		l.Append("gate-denial", uint32(i), fmt.Sprintf("detail %d", i))
	}
	if l.Len() != 5 {
		t.Fatalf("len = %d, want 5", l.Len())
	}
	if err := VerifyChain(l.Records(), l.Head()); err != nil {
		t.Fatalf("honest ledger failed verification: %v", err)
	}
	recs := l.Records()
	if recs[0].Prev != ([32]byte{}) {
		t.Error("genesis record must chain from zero")
	}
	if recs[4].Hash != l.Head() {
		t.Error("head must equal the last record's hash")
	}
	if err := VerifyChain(recs, l.Head()); err != nil {
		t.Fatalf("exported copy failed verification: %v", err)
	}
	if err := VerifyChain(nil, [32]byte{}); err != nil {
		t.Fatalf("empty chain with zero head must verify: %v", err)
	}
}

func TestLedgerTamperDetection(t *testing.T) {
	l := NewLedger(nil)
	for i := 0; i < 4; i++ {
		l.Append("integrity-fail", 1, fmt.Sprintf("page %d", i))
	}
	recs := l.Records()
	head := l.Head()

	tamper := func(name string, mutate func([]Record) []Record) {
		t.Run(name, func(t *testing.T) {
			forged := mutate(append([]Record{}, recs...))
			if VerifyChain(forged, head) == nil {
				t.Fatalf("%s passed verification", name)
			}
		})
	}
	tamper("rewrite detail", func(r []Record) []Record {
		r[2].Detail = "benign"
		return r
	})
	tamper("rewrite with rehash", func(r []Record) []Record {
		r[2].Detail = "benign"
		r[2].Hash = HashRecord(r[2])
		return r
	})
	tamper("reorder", func(r []Record) []Record {
		r[1], r[2] = r[2], r[1]
		return r
	})
	tamper("truncate", func(r []Record) []Record {
		return r[:3]
	})
	tamper("delete middle", func(r []Record) []Record {
		return append(r[:1], r[2:]...)
	})
	tamper("splice foreign record", func(r []Record) []Record {
		other := NewLedger(nil)
		other.Append("gate-denial", 9, "foreign")
		return append(r, other.Records()...)
	})

	// Full rewrite-and-rechain from the edit point is internally
	// consistent — only the externally held head exposes it.
	rechained := NewLedger(nil)
	for i, r := range recs {
		d := r.Detail
		if i == 2 {
			d = "benign"
		}
		rechained.Append(r.Class, r.VM, d)
	}
	if err := VerifyChain(rechained.Records(), rechained.Head()); err != nil {
		t.Fatalf("rechained forgery should self-verify: %v", err)
	}
	if VerifyChain(rechained.Records(), head) == nil {
		t.Fatal("rechained forgery passed against the live head")
	}
}

func TestHubLedgerLifecycle(t *testing.T) {
	h, _ := clockHub()
	if h.Auditing() {
		t.Fatal("fresh hub must not be auditing")
	}
	h.Audit("dropped", 1, "no ledger") // must be a no-op
	led := h.StartLedger()
	if !h.Auditing() || h.Ledger() != led {
		t.Fatal("StartLedger did not arm the hub")
	}
	h.Audit("gate-denial", 3, "type1 write")
	if led.Len() != 1 {
		t.Fatalf("ledger has %d records, want 1", led.Len())
	}
	if got := h.M.AuditRecords.Value(); got != 1 {
		t.Fatalf("audit.records = %d, want 1", got)
	}
	rec := led.Records()[0]
	if rec.Class != "gate-denial" || rec.VM != 3 {
		t.Fatalf("record = %+v", rec)
	}
}

// ---- SLO engine ---------------------------------------------------------

// sloSnapshot builds a snapshot whose vmexit histogram has good
// observations at ~50 cycles and bad ones in the overflow bucket.
func sloSnapshot(good, bad uint64) Snapshot {
	r := NewRegistry()
	h := r.Histogram("vmexit.cycles", CycleBuckets)
	for i := uint64(0); i < good; i++ {
		h.Observe(50)
	}
	for i := uint64(0); i < bad; i++ {
		h.Observe(1 << 40)
	}
	return r.Snapshot()
}

func TestEvaluateSLOs(t *testing.T) {
	obj := Objective{Name: "p50", Metric: "vmexit.cycles", Quantile: 0.5, Max: 4096, Target: 0.9, MinCount: 8}

	t.Run("pass", func(t *testing.T) {
		evals := EvaluateSLOs(sloSnapshot(20, 0), []Objective{obj})
		ev := evals[0]
		if ev.Skipped || !ev.Pass {
			t.Fatalf("healthy workload failed: %+v", ev)
		}
		if ev.BurnRate != 0 {
			t.Errorf("burn rate = %v, want 0", ev.BurnRate)
		}
	})
	t.Run("fail with burn rate", func(t *testing.T) {
		// 5 bad of 20: BadFrac 0.25, budget 0.1 → burn 2.5.
		evals := EvaluateSLOs(sloSnapshot(15, 5), []Objective{obj})
		ev := evals[0]
		if ev.Skipped || ev.Pass {
			t.Fatalf("burning workload passed: %+v", ev)
		}
		if math.Abs(ev.BurnRate-2.5) > 1e-9 {
			t.Errorf("burn rate = %v, want 2.5", ev.BurnRate)
		}
	})
	t.Run("skip below min count", func(t *testing.T) {
		evals := EvaluateSLOs(sloSnapshot(3, 0), []Objective{obj})
		if !evals[0].Skipped {
			t.Fatalf("3 < MinCount 8 must skip: %+v", evals[0])
		}
	})
	t.Run("skip absent metric", func(t *testing.T) {
		o := obj
		o.Metric = "no.such.metric"
		evals := EvaluateSLOs(sloSnapshot(20, 0), []Objective{o})
		if !evals[0].Skipped {
			t.Fatalf("absent metric must skip: %+v", evals[0])
		}
	})
	t.Run("pure quantile check when target unset", func(t *testing.T) {
		o := obj
		o.Target = 0
		evals := EvaluateSLOs(sloSnapshot(20, 0), []Objective{o})
		if !evals[0].Pass {
			t.Fatalf("quantile-only objective failed: %+v", evals[0])
		}
	})
}

func TestHubEvaluateSLOsEmitsAlert(t *testing.T) {
	h, _ := clockHub()
	h.StartTrace(64)
	led := h.StartLedger()
	hist := h.Reg.Histogram("vmexit.cycles", CycleBuckets)
	for i := 0; i < 15; i++ {
		hist.Observe(50)
	}
	for i := 0; i < 5; i++ {
		hist.Observe(1 << 40)
	}
	obj := Objective{Name: "p50", Metric: "vmexit.cycles", Quantile: 0.5, Max: 4096, Target: 0.9, MinCount: 8}
	evals := h.EvaluateSLOs([]Objective{obj})
	if len(evals) != 1 || evals[0].Pass {
		t.Fatalf("expected one failing evaluation: %+v", evals)
	}
	if got := h.M.SLOAlerts.Value(); got != 1 {
		t.Fatalf("slo.alerts = %d, want 1", got)
	}
	var alert *Event
	for _, e := range h.Trace().Events() {
		if e.Kind == KindSLOAlert {
			ev := e
			alert = &ev
		}
	}
	if alert == nil {
		t.Fatal("no KindSLOAlert event emitted")
	}
	if alert.Arg1 != 2500 {
		t.Errorf("alert burn arg = %d, want 2500 (burn x1000)", alert.Arg1)
	}
	if led.Len() != 1 || led.Records()[0].Class != "slo-burn" {
		t.Fatalf("burn must land in the audit ledger: %v", led.Records())
	}
}

func TestWriteSLOTable(t *testing.T) {
	evals := []Evaluation{
		{Objective: Objective{Name: "b-fail", Metric: "m"}, Count: 10, BurnRate: 3, Pass: false},
		{Objective: Objective{Name: "a-pass", Metric: "m"}, Count: 10, Pass: true},
		{Objective: Objective{Name: "c-skip", Metric: "m"}, Skipped: true},
	}
	var sb strings.Builder
	if err := WriteSLOTable(&sb, evals); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"PASS", "FAIL", "SKIP (insufficient samples)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: a-pass before b-fail before c-skip.
	if ia, ib := strings.Index(out, "a-pass"), strings.Index(out, "b-fail"); ia > ib {
		t.Error("table not sorted by objective name")
	}
}

// ---- concurrency (run under -race via make stress) ----------------------

// TestConcurrentSpanAndLedger opens and closes spans and appends audit
// records from many goroutines at once: under -race this proves the span
// ring, ambient register and ledger chain are data-race free, and the
// chain must still verify afterwards with nothing lost.
func TestConcurrentSpanAndLedger(t *testing.T) {
	h := New(nil)
	h.StartTrace(1 << 12)
	led := h.StartLedger()

	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := h.OpenScope("scope", uint32(w), uint32(w))
				child := h.OpenSpan("child", uint32(w), uint32(w), sp.ID())
				child.Close()
				h.Audit("gate-denial", uint32(w), "concurrent append")
				sp.Close()
			}
		}(w)
	}
	wg.Wait()

	const wantSpans = workers * perWorker * 2
	if got := h.Trace().SpanTotal(); got != wantSpans {
		t.Errorf("span total = %d, want %d", got, wantSpans)
	}
	if got := led.Len(); got != workers*perWorker {
		t.Errorf("ledger len = %d, want %d", got, workers*perWorker)
	}
	if err := VerifyChain(led.Records(), led.Head()); err != nil {
		t.Fatalf("ledger chain broken after concurrent appends: %v", err)
	}
	// Note: h.Ambient() may legitimately be non-zero here. Unsynchronized
	// concurrent scopes hand the register back via compare-and-swap, so a
	// scope whose successor already closed restores its own predecessor —
	// possibly a span from another goroutine. That is the documented
	// reason ScheduleParallel's quanta pass an explicit parent (OpenSpan)
	// instead of relying on scope nesting.
}
