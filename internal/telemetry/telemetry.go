// Package telemetry is the platform's unified observability layer: a
// metrics registry (lock-free counters, gauges and fixed-bucket cycle
// histograms), a bounded ring-buffer event tracer with cycle timestamps,
// and exporters (JSON snapshot, human-readable table, Chrome trace_event
// timeline for chrome://tracing / Perfetto).
//
// The paper's entire evaluation (Section 7) is built on observing
// micro-architectural events — gate transitions, VMEXIT round trips,
// encrypted-memory latencies — and related attack work (SEVered,
// CROSSLINE) found its attacks by watching hypervisor-visible event
// streams. This package makes both first-class: every layer of the
// simulator publishes into one registry and, when tracing is enabled, one
// typed event stream.
//
// Cost model: metrics are always on (single atomic or plain-field
// increments on paths that already do map lookups); the tracer is off by
// default and its disabled path is one nil-safe atomic load
// (Hub.Tracing), proven near-free by BenchmarkTelemetryOff in
// internal/hw.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind is the type of one traced event.
type Kind uint8

// Event kinds, covering every hot path the paper measures.
const (
	KindNone          Kind = iota
	KindVMRun              // VMRUN executed (arg1 = VMCB PA)
	KindVMExit             // VMEXIT taken (arg1 = exit reason)
	KindGate1              // type 1 gate: clear/restore CR0.WP
	KindGate2              // type 2 gate: checking loop
	KindGate3              // type 3 gate: add/remove mapping (arg1 = stub page VA)
	KindShadowSave         // VMCB+regs shadowed at guest→host boundary
	KindShadowVerify       // shadow verified/restored at host→guest boundary
	KindSEVCommand         // SEV firmware command (detail = name, arg1 = handle)
	KindNPTViolation       // nested-page-table violation (arg1 = GPA)
	KindTLBFlushFull       // full TLB flush
	KindTLBFlushEntry      // single-entry TLB flush (arg1 = VA)
	KindMemEncrypt         // memory-controller inline encrypt (arg1 = PA, arg2 = bytes)
	KindMemDecrypt         // memory-controller inline decrypt (arg1 = PA, arg2 = bytes)
	KindHypercall          // hypercall dispatched (arg1 = number)
	KindBlkRequest         // PV block-ring request (arg1 = LBA, arg2 = sectors)
	KindIOCrypt            // SEV I/O re-encryption op (arg1 = LBA, arg2 = sectors)
	KindEvtSignal          // event-channel kick (arg1 = port)
	KindViolation          // policy violation recorded (detail = kind: detail)
	KindMigrateRound       // one pre-copy round shipped (arg1 = round, arg2 = pages)
	KindMigrateDone        // migration finished (arg1 = rounds, arg2 = downtime cycles)
	KindAudit              // security audit record appended (detail = class: detail)
	KindSLOAlert           // SLO burn-rate alert (detail = objective, arg1 = burn rate x1000)
	KindServeReq           // serve-ring request injected (arg1 = op id, arg2 = op kind)
	KindServeDone          // serve-ring response completed (arg1 = op id, arg2 = latency cycles)

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:          "none",
	KindVMRun:         "vmrun",
	KindVMExit:        "vmexit",
	KindGate1:         "gate1",
	KindGate2:         "gate2",
	KindGate3:         "gate3",
	KindShadowSave:    "shadow-save",
	KindShadowVerify:  "shadow-verify",
	KindSEVCommand:    "sev-command",
	KindNPTViolation:  "npt-violation",
	KindTLBFlushFull:  "tlb-flush-full",
	KindTLBFlushEntry: "tlb-flush-entry",
	KindMemEncrypt:    "mem-encrypt",
	KindMemDecrypt:    "mem-decrypt",
	KindHypercall:     "hypercall",
	KindBlkRequest:    "blk-request",
	KindIOCrypt:       "io-crypt",
	KindEvtSignal:     "evt-signal",
	KindViolation:     "violation",
	KindMigrateRound:  "migrate-round",
	KindMigrateDone:   "migrate-done",
	KindAudit:         "audit",
	KindSLOAlert:      "slo-alert",
	KindServeReq:      "serve-req",
	KindServeDone:     "serve-done",
}

var kindCats = [numKinds]string{
	KindNone:          "",
	KindVMRun:         "cpu",
	KindVMExit:        "cpu",
	KindGate1:         "gate",
	KindGate2:         "gate",
	KindGate3:         "gate",
	KindShadowSave:    "vmcb",
	KindShadowVerify:  "vmcb",
	KindSEVCommand:    "sev",
	KindNPTViolation:  "mmu",
	KindTLBFlushFull:  "mmu",
	KindTLBFlushEntry: "mmu",
	KindMemEncrypt:    "mem",
	KindMemDecrypt:    "mem",
	KindHypercall:     "xen",
	KindBlkRequest:    "io",
	KindIOCrypt:       "io",
	KindEvtSignal:     "xen",
	KindViolation:     "policy",
	KindMigrateRound:  "migrate",
	KindMigrateDone:   "migrate",
	KindAudit:         "audit",
	KindSLOAlert:      "slo",
	KindServeReq:      "serve",
	KindServeDone:     "serve",
}

// String reports the event name used in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Category groups kinds for trace viewers.
func (k Kind) Category() string {
	if int(k) < len(kindCats) {
		return kindCats[k]
	}
	return ""
}

// Event is one traced platform event. TS is the simulated cycle timestamp
// at emission; Dur, when non-zero, is the modelled duration in cycles (the
// gate constants, the shadow-check halves, the SEV command cost), making
// the event a span rather than an instant in the timeline export.
type Event struct {
	Seq    uint64
	TS     uint64
	Dur    uint64
	Kind   Kind
	VM     uint32 // domain ID; 0 = host/hypervisor context
	ASID   uint32
	Arg1   uint64
	Arg2   uint64
	Detail string
}

// Metrics is the set of pre-resolved handles for the platform's canonical
// counters and histograms, so hot paths pay a single atomic increment and
// never a map lookup. Every handle is resolved from the hub's registry at
// construction; the field names mirror the registry metric names.
type Metrics struct {
	Gate1, Gate2, Gate3 *Counter // gate.type1/2/3
	Shadows             *Counter // vmcb.shadows
	Violations          *Counter // violations.total
	VMRuns, VMExits     *Counter // cpu.vmruns, cpu.vmexits
	Hypercalls          *Counter // xen.hypercalls
	NPTWalks            *Counter // mmu.npt_walks
	SEVCommands         *Counter // sev.commands
	DirtyMarks          *Counter // mmu.dirty_marks
	BlkRequests         *Counter // blk.requests
	BlkSectors          *Counter // blk.sectors
	EvtSignals          *Counter // evt.signals
	AuditRecords        *Counter // audit.records
	SLOAlerts           *Counter // slo.alerts
	ServeOps            *Counter // serve.ops: completed serve requests
	ServeTimeouts       *Counter // serve.timeouts: responses past their deadline
	ServeRejects        *Counter // serve.rejects: sessions denied at admission
	DiskSeekReads       *Counter // xen.disk_seeks{kind=read}: non-sequential read LBAs
	DiskSeekWrites      *Counter // xen.disk_seeks{kind=write}: non-sequential write LBAs
	KVSeqWrites         *Counter // kv.seq_writes: store writes coalesced onto a pending span
	KVGroupCommits      *Counter // kv.group_commits: multi-write spans flushed as one request
	KVCacheHits         *Counter // kv.cache_hits: gets answered from the guest read cache
	KVCacheMisses       *Counter // kv.cache_misses: gets that had to recharge the session cipher
	KVCompactions       *Counter // kv.compactions: log compaction cycles completed
	KVReclaimed         *Counter // kv.compact_reclaimed: log sectors reclaimed by compaction
	ServeHolds          *Counter // serve.holds: doorbells answered empty to deepen the next batch

	ExitCycles      *Histogram // vmexit.cycles: per-quantum round-trip cost
	ServeLatency    *Histogram // serve.latency: arrival-to-response cycles, all tenants
	ServeBatchDepth *Histogram // serve.batch_depth: ops posted per non-empty doorbell fill
}

func newMetrics(r *Registry) Metrics {
	return Metrics{
		Gate1:          r.Counter("gate.type1"),
		Gate2:          r.Counter("gate.type2"),
		Gate3:          r.Counter("gate.type3"),
		Shadows:        r.Counter("vmcb.shadows"),
		Violations:     r.Counter("violations.total"),
		VMRuns:         r.Counter("cpu.vmruns"),
		VMExits:        r.Counter("cpu.vmexits"),
		Hypercalls:     r.Counter("xen.hypercalls"),
		NPTWalks:       r.Counter("mmu.npt_walks"),
		SEVCommands:    r.Counter("sev.commands"),
		DirtyMarks:     r.Counter("mmu.dirty_marks"),
		BlkRequests:    r.Counter("blk.requests"),
		BlkSectors:     r.Counter("blk.sectors"),
		EvtSignals:     r.Counter("evt.signals"),
		AuditRecords:   r.Counter("audit.records"),
		SLOAlerts:      r.Counter("slo.alerts"),
		ServeOps:       r.Counter("serve.ops"),
		ServeTimeouts:  r.Counter("serve.timeouts"),
		ServeRejects:   r.Counter("serve.rejects"),
		DiskSeekReads:  r.Counter("xen.disk_seeks", "kind", "read"),
		DiskSeekWrites: r.Counter("xen.disk_seeks", "kind", "write"),
		KVSeqWrites:    r.Counter("kv.seq_writes"),
		KVGroupCommits: r.Counter("kv.group_commits"),
		KVCacheHits:    r.Counter("kv.cache_hits"),
		KVCacheMisses:  r.Counter("kv.cache_misses"),
		KVCompactions:  r.Counter("kv.compactions"),
		KVReclaimed:    r.Counter("kv.compact_reclaimed"),
		ServeHolds:     r.Counter("serve.holds"),
		ExitCycles:     r.Histogram("vmexit.cycles", CycleBuckets),
		ServeLatency:   r.Histogram("serve.latency", ServeLatencyBuckets),
		ServeBatchDepth: r.Histogram("serve.batch_depth",
			[]uint64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
	}
}

// Hub is one machine's telemetry: the registry, the canonical metric
// handles, and the (optional) event tracer. The hub is created by the
// memory controller and shared by every layer above it; the clock is the
// machine's deterministic cycle counter.
type Hub struct {
	now    func() uint64
	Reg    *Registry
	M      Metrics
	tracer atomic.Pointer[Tracer]
	ledger atomic.Pointer[Ledger]

	// spanSeq allocates span IDs; ambient is the current-span register
	// used by OpenScope to build parent links (see span.go).
	spanSeq atomic.Uint64
	ambient atomic.Uint64

	mu      sync.Mutex
	vmNames map[uint32]string
	asidVM  map[uint32]uint32
}

// New builds a hub whose event timestamps come from now (the machine's
// cycle counter).
func New(now func() uint64) *Hub {
	reg := NewRegistry()
	h := &Hub{
		now:     now,
		Reg:     reg,
		M:       newMetrics(reg),
		vmNames: map[uint32]string{0: "host"},
		asidVM:  map[uint32]uint32{},
	}
	return h
}

// Now reads the hub clock. Nil-safe.
func (h *Hub) Now() uint64 {
	if h == nil || h.now == nil {
		return 0
	}
	return h.now()
}

// Tracing reports whether an event tracer is attached. This is the
// disabled-path fast check: a nil test plus one atomic load.
func (h *Hub) Tracing() bool {
	return h != nil && h.tracer.Load() != nil
}

// StartTrace attaches a fresh ring-buffer tracer of the given capacity
// (DefaultTraceCap when <= 0) and returns it.
func (h *Hub) StartTrace(capacity int) *Tracer {
	if h == nil {
		return nil
	}
	t := NewTracer(capacity)
	h.tracer.Store(t)
	return t
}

// StopTrace detaches and returns the current tracer (nil if none).
func (h *Hub) StopTrace() *Tracer {
	if h == nil {
		return nil
	}
	return h.tracer.Swap(nil)
}

// Trace returns the attached tracer without detaching it.
func (h *Hub) Trace() *Tracer {
	if h == nil {
		return nil
	}
	return h.tracer.Load()
}

// NameVM records a display name for a domain ID, used by the timeline
// export to label per-VM tracks.
func (h *Hub) NameVM(id uint32, name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.vmNames[id] = name
	h.mu.Unlock()
}

// MapASID records which domain an ASID belongs to, letting layers that
// only see ASIDs (the memory controller, the AES engine) label their
// events per-VM.
func (h *Hub) MapASID(asid, vm uint32) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.asidVM[asid] = vm
	h.mu.Unlock()
}

// VMForASID resolves an ASID to its owning domain (0 = host/unknown).
func (h *Hub) VMForASID(asid uint32) uint32 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	vm := h.asidVM[asid]
	h.mu.Unlock()
	return vm
}

// VMNames returns a copy of the VM display-name table.
func (h *Hub) VMNames() map[uint32]string {
	out := make(map[uint32]string)
	if h == nil {
		return out
	}
	h.mu.Lock()
	for k, v := range h.vmNames {
		out[k] = v
	}
	h.mu.Unlock()
	return out
}

// Emit records one event if tracing is enabled. dur is the modelled span
// length in cycles (0 for an instant event).
func (h *Hub) Emit(k Kind, vm, asid uint32, dur, arg1, arg2 uint64) {
	h.EmitDetail(k, vm, asid, dur, arg1, arg2, "")
}

// StartLedger attaches a fresh hash-chained audit ledger (replacing any
// current one) and returns it.
func (h *Hub) StartLedger() *Ledger {
	if h == nil {
		return nil
	}
	l := NewLedger(h.now)
	h.ledger.Store(l)
	return l
}

// Ledger returns the attached audit ledger without detaching it.
func (h *Hub) Ledger() *Ledger {
	if h == nil {
		return nil
	}
	return h.ledger.Load()
}

// Auditing reports whether an audit ledger is attached — the disabled-path
// fast check (a nil test plus one atomic load), so call sites that would
// build a detail string can skip the work entirely.
func (h *Hub) Auditing() bool {
	return h != nil && h.ledger.Load() != nil
}

// Audit appends one security-relevant record (a gatekeeper denial, an
// integrity-tag failure, an NPT remap or ASID-reuse detection, an
// attestation state transition) to the hash-chained ledger. No-op when no
// ledger is attached; when tracing is also on, the record is mirrored as
// a KindAudit event so the timeline and the ledger cross-reference.
func (h *Hub) Audit(class string, vm uint32, detail string) {
	if h == nil {
		return
	}
	l := h.ledger.Load()
	if l == nil {
		return
	}
	l.Append(class, vm, detail)
	h.M.AuditRecords.Inc()
	if h.tracer.Load() != nil {
		h.EmitDetail(KindAudit, vm, 0, 0, 0, 0, class+": "+detail)
	}
}

// EmitDetail is Emit with an attached detail string.
func (h *Hub) EmitDetail(k Kind, vm, asid uint32, dur, arg1, arg2 uint64, detail string) {
	if h == nil {
		return
	}
	t := h.tracer.Load()
	if t == nil {
		return
	}
	t.record(Event{
		TS:     h.Now(),
		Dur:    dur,
		Kind:   k,
		VM:     vm,
		ASID:   asid,
		Arg1:   arg1,
		Arg2:   arg2,
		Detail: detail,
	})
}
