package telemetry

import "sync"

// DefaultTraceCap is the tracer ring capacity used when none is given:
// large enough to hold a full demo run, small enough to bound memory.
const DefaultTraceCap = 1 << 16

// Tracer is a bounded ring buffer of events. When full, the oldest events
// are overwritten (the interesting window is usually the most recent one),
// and Dropped reports how many were lost. Recording takes a short mutex;
// the simulator is effectively single-threaded per machine (the vCPU
// handoff is synchronous), so the lock is uncontended in practice but
// keeps concurrent recorders safe under the race detector.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded; next % cap is the write slot

	// Spans live in their own ring so a flood of fine-grained events
	// cannot evict the causal skeleton (there are far fewer spans than
	// events). Same overwrite-oldest policy.
	sbuf  []Span
	snext uint64
}

// NewTracer returns a tracer holding at most capacity events
// (DefaultTraceCap when capacity <= 0) and as many spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, capacity), sbuf: make([]Span, capacity)}
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	e.Seq = t.next
	t.buf[t.next%uint64(len(t.buf))] = e
	t.next++
	t.mu.Unlock()
}

func (t *Tracer) recordSpan(s Span) {
	t.mu.Lock()
	t.sbuf[t.snext%uint64(len(t.sbuf))] = s
	t.snext++
	t.mu.Unlock()
}

// Dropped reports how many events were overwritten by wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next <= uint64(len(t.buf)) {
		return 0
	}
	return t.next - uint64(len(t.buf))
}

// SpanTotal reports how many spans were ever recorded, including
// overwritten ones.
func (t *Tracer) SpanTotal() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snext
}

// Spans returns the retained finished spans, oldest-first (close order).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.snext
	capacity := uint64(len(t.sbuf))
	if n <= capacity {
		out := make([]Span, n)
		copy(out, t.sbuf[:n])
		return out
	}
	out := make([]Span, 0, capacity)
	start := n % capacity
	out = append(out, t.sbuf[start:]...)
	out = append(out, t.sbuf[:start]...)
	return out
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	capacity := uint64(len(t.buf))
	if n <= capacity {
		out := make([]Event, n)
		copy(out, t.buf[:n])
		return out
	}
	out := make([]Event, 0, capacity)
	start := n % capacity // oldest retained slot
	out = append(out, t.buf[start:]...)
	out = append(out, t.buf[:start]...)
	return out
}
