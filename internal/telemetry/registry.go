package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing, lock-free metric. All methods are
// safe for concurrent use and safe on a nil receiver (a nil counter is a
// no-op sink, so call sites never need to branch on whether telemetry is
// wired up).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. Like Counter it is lock-free
// and nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value reports the current reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// CycleBuckets is the default fixed bucket layout for cycle-cost
// histograms: roughly one bucket per factor of four from a cache hit
// (4 cycles) up past a disk seek (~10^6 cycles).
var CycleBuckets = []uint64{16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}

// ServeLatencyBuckets is the bucket layout for request-serving latency
// histograms: serving latency spans from a ring round trip (~10^4
// cycles) through seek-dominated puts (~10^6) up to deep open-loop
// queueing (~10^8), so the range sits two decades above CycleBuckets.
var ServeLatencyBuckets = []uint64{4096, 16384, 65536, 262144, 1048576,
	4194304, 16777216, 67108864, 268435456, 1073741824}

// Histogram is a fixed-bucket, lock-free histogram. Bucket i counts
// observations v <= bounds[i]; one extra overflow bucket counts the rest.
// Observe is safe for concurrent use and nil-safe.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds  []uint64 `json:"bounds"`
	Buckets []uint64 `json:"buckets"` // len(Bounds)+1, last is overflow
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
}

// Mean reports the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear
// interpolation inside the bucket that holds the q*Count-th observation,
// Prometheus-style: bucket i spans (Bounds[i-1], Bounds[i]] with the
// first bucket starting at 0. An empty snapshot reports 0. When the rank
// falls in the overflow bucket there is no upper bound to interpolate
// toward, so the estimate saturates at the last finite bound — a
// deliberate underestimate that keeps SLO checks against "value <= max"
// conservative rather than inventing a tail.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: saturate at the last finite bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return float64(s.Bounds[len(s.Bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = float64(s.Bounds[i-1])
		}
		hi := float64(s.Bounds[i])
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// FracAtMost estimates the fraction of observations <= v, interpolating
// linearly inside the bucket that straddles v. Values beyond the last
// finite bound count the overflow bucket as entirely above v (the
// conservative direction for an error-budget check). Empty snapshots
// report 1 (vacuously within any bound).
func (s HistogramSnapshot) FracAtMost(v float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 1
	}
	var atMost float64
	for i, c := range s.Buckets {
		if i >= len(s.Bounds) {
			break // overflow: all above any finite v
		}
		lo := 0.0
		if i > 0 {
			lo = float64(s.Bounds[i-1])
		}
		hi := float64(s.Bounds[i])
		switch {
		case v >= hi:
			atMost += float64(c)
		case v > lo:
			atMost += float64(c) * (v - lo) / (hi - lo)
		}
	}
	return atMost / float64(s.Count)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  append([]uint64{}, h.bounds...),
		Buckets: make([]uint64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// MetricName builds the canonical registry key: base{k1=v1,k2=v2} with
// labels given as alternating key, value pairs.
func MetricName(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is the process-wide (per machine) metrics registry: named
// counters, gauges, external readers and histograms. Registration takes a
// lock; the returned handles are lock-free, so hot paths resolve their
// metric once and then only touch atomics.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() uint64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() uint64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the counter for base+labels.
// Nil-safe: a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(base string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	name := MetricName(base, labels...)
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (registering on first use) the gauge for base+labels.
func (r *Registry) Gauge(base string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	name := MetricName(base, labels...)
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// RegisterFunc publishes an external reader under base+labels. This is how
// pre-existing accounting (the cycle counter, cache hit counts, TLB flush
// statistics) is served from the unified registry without duplicating it:
// the original variable stays the single source of truth and the registry
// reads it at snapshot time.
func (r *Registry) RegisterFunc(base string, fn func() uint64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	name := MetricName(base, labels...)
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// UnregisterFunc removes an external reader registered under base+labels.
// Lifecycle churn depends on it: a destroyed domain's per-VM readers must
// not accumulate (nor keep the domain reachable) across thousands of
// create/destroy cycles.
func (r *Registry) UnregisterFunc(base string, labels ...string) {
	if r == nil {
		return
	}
	name := MetricName(base, labels...)
	r.mu.Lock()
	delete(r.funcs, name)
	r.mu.Unlock()
}

// Histogram returns (registering on first use) a fixed-bucket histogram.
// The bounds of the first registration win.
func (r *Registry) Histogram(base string, bounds []uint64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	name := MetricName(base, labels...)
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
// Registered reader funcs appear in Gauges (they are instantaneous
// readings of externally owned state).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]uint64            `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry. Safe to call while the simulation runs.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]uint64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	funcs := make(map[string]func() uint64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = uint64(v.Value())
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}
