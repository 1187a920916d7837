package telemetry

// Causal span tracing: a Span is an interval with an identity, a parent
// link and labelled attributes, so a whole domain lifetime — scheduler
// session, per-quantum VMEXIT round trips, the SEV firmware commands a
// launch performs, pre-copy migration rounds, bulk-crypto pool batches —
// reads as one causal tree instead of a flat event stream.
//
// Cost model matches the event tracer: the disabled path (no tracer
// attached) is a nil test plus one atomic load in OpenSpan/OpenScope,
// which then return a nil *OpenSpan whose every method is a nil-safe
// no-op — proven allocation-free by TestDisabledFlightRecorderAllocFree
// and the <5% overhead guard in internal/hw.
//
// Parent propagation uses an "ambient" current-span register on the hub
// (one lock-free atomic): OpenScope parents under the current ambient
// span and installs itself as the new ambient until Close, which restores
// the previous value with a compare-and-swap so concurrent scopes cannot
// clobber each other. In the deterministic serial mode this yields exact
// nesting; under ScheduleParallel, code that needs exact attribution
// passes an explicit parent (OpenSpan — what the parallel scheduler's
// quanta do), so cross-domain quanta never mis-parent.

// Attr is one labelled span attribute.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one finished causal interval. ID is unique per hub (1-based;
// 0 means "no span" and is the root parent). Start/End are cycle
// timestamps from the hub clock.
type Span struct {
	ID     uint64
	Parent uint64
	Name   string
	VM     uint32
	ASID   uint32
	Start  uint64
	End    uint64
	Attrs  []Attr
}

// OpenSpan is an in-flight span handle. All methods are nil-safe, so
// call sites never branch on whether tracing is enabled:
//
//	sp := hub.OpenScope("quantum", vm, asid)
//	defer sp.Close()
type OpenSpan struct {
	h      *Hub
	s      Span
	prev   uint64 // ambient value to restore on Close
	scoped bool
}

// OpenSpan opens a span under an explicit parent (0 = root). Returns nil
// (a no-op handle) when no tracer is attached.
func (h *Hub) OpenSpan(name string, vm, asid uint32, parent uint64) *OpenSpan {
	if h == nil || h.tracer.Load() == nil {
		return nil
	}
	return &OpenSpan{h: h, s: Span{
		ID:     h.spanSeq.Add(1),
		Parent: parent,
		Name:   name,
		VM:     vm,
		ASID:   asid,
		Start:  h.Now(),
	}}
}

// OpenScope opens a span parented under the current ambient span and
// installs it as the new ambient parent until Close. This is the default
// way to build the causal tree on a single logical flow of control.
func (h *Hub) OpenScope(name string, vm, asid uint32) *OpenSpan {
	if h == nil || h.tracer.Load() == nil {
		return nil
	}
	parent := h.ambient.Load()
	sp := &OpenSpan{h: h, prev: parent, scoped: true, s: Span{
		ID:     h.spanSeq.Add(1),
		Parent: parent,
		Name:   name,
		VM:     vm,
		ASID:   asid,
		Start:  h.Now(),
	}}
	h.ambient.Store(sp.s.ID)
	return sp
}

// Ambient reads the current ambient span ID (0 = none). Nil-safe.
func (h *Hub) Ambient() uint64 {
	if h == nil {
		return 0
	}
	return h.ambient.Load()
}

// CompleteSpan records an already-finished span in one call, for sites
// whose cost model charges the clock before the fact (the SEV firmware
// command constant): start/end are explicit cycle timestamps.
func (h *Hub) CompleteSpan(name string, vm, asid uint32, parent, start, end uint64, attrs ...Attr) {
	if h == nil {
		return
	}
	t := h.tracer.Load()
	if t == nil {
		return
	}
	t.recordSpan(Span{
		ID:     h.spanSeq.Add(1),
		Parent: parent,
		Name:   name,
		VM:     vm,
		ASID:   asid,
		Start:  start,
		End:    end,
		Attrs:  attrs,
	})
}

// ID reports the span's identity (0 on a nil handle, i.e. tracing off).
func (sp *OpenSpan) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.s.ID
}

// Attr attaches one labelled attribute and returns the handle for
// chaining. No-op on a nil handle.
func (sp *OpenSpan) Attr(key, val string) *OpenSpan {
	if sp != nil {
		sp.s.Attrs = append(sp.s.Attrs, Attr{Key: key, Val: val})
	}
	return sp
}

// Close stamps the end timestamp, restores the ambient parent (for scoped
// spans) and records the span in the tracer ring. Safe to call on a nil
// handle; closing twice records twice, so don't.
func (sp *OpenSpan) Close() {
	if sp == nil {
		return
	}
	if sp.scoped {
		// Restore only if we are still the ambient span: a concurrent
		// scope that replaced us owns the register now and will restore
		// its own predecessor.
		sp.h.ambient.CompareAndSwap(sp.s.ID, sp.prev)
	}
	sp.s.End = sp.h.Now()
	if t := sp.h.tracer.Load(); t != nil {
		t.recordSpan(sp.s)
	}
}
