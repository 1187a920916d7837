// Package serve is the multi-tenant request-serving front end: thousands
// of simulated clients issue get/put/delete against per-tenant
// Fidelius-protected VMs, each running the internal/kv store over the
// protected PV block path, with requests delivered through a
// sector-framed shared-memory ring signalled via event-channel ports.
//
// This is the paper's motivating scenario turned into a workload — a
// tenant service whose data stays confidential against the hypervisor —
// and simultaneously its attack surface: SEVered-style attacks abuse
// exactly such a guest-facing service, and "Insecure Until Proven
// Updated" shows why a client must verify the VM's launch measurement
// before provisioning any secret. Both concerns are first-class here:
// admission is attestation-gated (a client session verifies a VM-bound
// quote before its data key is ever enqueued; rejections land in the
// audit ledger), and every request is measured on the platform's cycle
// clock into labelled latency histograms with open-loop arrivals, so
// coordinated omission cannot hide tail latency.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"fidelius/internal/core"
	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/sev"
	"fidelius/internal/telemetry"
	"fidelius/internal/xen"
)

// Event-channel ports of one tenant domain (per-domain namespace).
const (
	// BlkPort is the PV block device's kick port.
	BlkPort = 1
	// DoorbellPort is the guest's "give me work" kick: the host fills
	// request frames inside this handler.
	DoorbellPort = 2
	// CompletionPort is the guest's "responses posted" kick: the host
	// drains response frames and records latencies inside this handler.
	CompletionPort = 3
)

// Config sizes one serving scenario.
type Config struct {
	// Tenants is the number of tenant VMs (default 8).
	Tenants int
	// ClientsPerTenant simulated client sessions per tenant (default 128).
	ClientsPerTenant int
	// OpsPerClient operations each client issues (default 2).
	OpsPerClient int
	// RatePerMCycle is each tenant's offered load in ops per million
	// cycles, Poisson arrivals (default 0.15 — roughly 70% of what a
	// log-structured put mix sustains through the seek-dominated disk
	// model, so latency shows queueing without unbounded backlog).
	RatePerMCycle float64
	// PutFrac and DelFrac set the op mix beyond first-touch puts
	// (defaults 0.35 / 0.10; the remainder are gets).
	PutFrac, DelFrac float64
	// Seed makes the generated load deterministic (default 1).
	Seed int64
	// StoreSectors is the kv store region length (default 384).
	StoreSectors int
	// ReadCacheEntries sizes the guest's LRU of session-encrypted hot
	// values (0 = DefaultReadCacheEntries; negative disables the cache).
	ReadCacheEntries int
	// HoldBudgetCycles caps how long the fill handler may answer a
	// doorbell empty so more arrivals accumulate into one group commit
	// (0 = DefaultHoldBudgetCycles; negative disables holding — every
	// due op posts immediately).
	HoldBudgetCycles int64
	// KeySpace overrides the per-client key population (0 = the default
	// OpsPerClient/2+1). Small keyspaces make gets cache-friendly and
	// overwrites garbage-heavy.
	KeySpace int
	// Parallel schedules tenants with ScheduleParallel at Width slots.
	Parallel bool
	Width    int
	// TamperTenants lists tenant indices whose client holds a corrupted
	// expected measurement: admission must refuse them.
	TamperTenants []int
}

func (c Config) withDefaults() Config {
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.ClientsPerTenant <= 0 {
		c.ClientsPerTenant = 128
	}
	if c.OpsPerClient <= 0 {
		c.OpsPerClient = 2
	}
	if c.RatePerMCycle <= 0 {
		c.RatePerMCycle = 0.15
	}
	if c.PutFrac == 0 {
		c.PutFrac = 0.35
	}
	if c.DelFrac == 0 {
		c.DelFrac = 0.10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StoreSectors <= 0 {
		c.StoreSectors = 384
	}
	if c.ReadCacheEntries == 0 {
		c.ReadCacheEntries = DefaultReadCacheEntries
	}
	if c.HoldBudgetCycles == 0 {
		c.HoldBudgetCycles = DefaultHoldBudgetCycles
	}
	return c
}

// The fixed shape of every tenant and its clients.
const (
	clientWindow   = 4        // in-flight ops per client
	deadlineCycles = 16 << 20 // per-op latency deadline for timeout accounting
	valueBytes     = 48
	tenantMemPages = 64
	dataPages      = 2 // PV block shared area
	diskSectors    = 512
)

// DefaultReadCacheEntries sizes each tenant guest's read cache of
// session-encrypted hot values.
const DefaultReadCacheEntries = 128

// DefaultHoldBudgetCycles bounds the extra delay one batch formation
// may add by answering doorbells empty — ~3/8 of the serve-p50
// objective, so holding alone cannot burn the SLO, yet comfortably
// above the commit's two-seek cost it amortises (measured on the
// put-heavy sweep: this budget holds hundreds of times per run and
// halves p50 at 1.6 ops/Mcycle/tenant).
const DefaultHoldBudgetCycles = 3 << 20

// adaptAmortCycles is the arrival window the fill handler tries to
// gather into one group commit — about ten write-seeks' worth of
// cycles, so the commit's two seeks amortise to noise across the batch.
const adaptAmortCycles = float64(4 << 20)

// tenant is one tenant VM plus its client-side session state. All fields
// below the setup section are mutated only inside the domain's event
// handlers — which the event bus invokes under the machine's gate lock —
// or after scheduling has finished.
type tenant struct {
	idx    int
	name   string
	dom    *xen.Domain
	bundle *core.GuestBundle
	disk   *disk.Disk
	kbase  uint64 // kernel base GPA

	// Client-side admission state.
	expectMeasure [32]byte // what the client believes the image measures
	admitted      bool
	rejected      bool
	dataKey       [32]byte

	// Ring plumbing: per-direction shared pages.
	reqPAs, respPAs []hw.PhysAddr

	// Injection / completion state (handler-owned).
	gen      *loadGen
	pending  map[uint64]*genOp
	nextID   uint64
	keySent  bool
	keyAcked bool

	// Adaptive-depth state (handler-owned): a smoothed interarrival gap
	// measured as ops are injected, the cycle the current hold streak
	// began (0 = not holding), and the hold count.
	arrEWMA   float64
	lastArr   uint64
	holdSince uint64
	holds     uint64

	// Stats (handler-owned until Run returns).
	ops, gets, puts, dels             uint64
	timeouts, mismatches, stray, errs uint64
	lat                               *telemetry.Histogram
}

// observeArrival feeds the fill handler's interarrival EWMA. Window
// skips can inject slightly out of arrival order, so negative gaps are
// clamped rather than wrapped.
func (t *tenant) observeArrival(arr uint64) {
	if t.lastArr != 0 {
		gap := float64(int64(arr) - int64(t.lastArr))
		if gap < 0 {
			gap = 0
		}
		if t.arrEWMA == 0 {
			t.arrEWMA = gap
		} else {
			t.arrEWMA += 0.2 * (gap - t.arrEWMA)
		}
	}
	t.lastArr = arr
}

// depthTarget converts the measured arrival rate into the batch size
// worth waiting for: the arrivals expected inside adaptAmortCycles,
// clamped to [1, ring frames]. A trickle tenant gets target 1 (no
// holding, minimum latency); a saturating one gets the full ring.
func (t *tenant) depthTarget() int {
	if t.arrEWMA <= 0 {
		return 1
	}
	d := int(adaptAmortCycles / t.arrEWMA)
	if d < 1 {
		d = 1
	}
	if d > ringFrames {
		d = ringFrames
	}
	return d
}

// Service is one multi-tenant serving scenario bound to a platform.
type Service struct {
	X   *xen.Xen
	F   *core.Fidelius
	cfg Config

	tenants []*tenant
	started uint64 // cycle clock at Run
	elapsed uint64
	ran     bool
}

// ErrNotProtected reports service creation on an unprotected platform.
var ErrNotProtected = errors.New("serve: serving requires a Fidelius-protected platform")

func (s *Service) hub() *telemetry.Hub { return s.X.M.Ctl.Telem }

// New builds the scenario: for every tenant it prepares an owner image,
// launches the protected VM, attaches the encrypted disk, maps the serve
// ring, runs the attestation-gated admission handshake, and publishes the
// start info. Tenants whose admission fails stay launched but rejected —
// their guests stop without ever seeing a data key.
func New(f *core.Fidelius, cfg Config) (*Service, error) {
	if f == nil {
		return nil, ErrNotProtected
	}
	cfg = cfg.withDefaults()
	s := &Service{X: f.X, F: f, cfg: cfg}
	owner, err := sev.NewOwner()
	if err != nil {
		return nil, err
	}
	platformPub, err := s.X.M.FW.PublicKey()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tampered := make(map[int]bool, len(cfg.TamperTenants))
	for _, i := range cfg.TamperTenants {
		tampered[i] = true
	}
	serveGFN := uint64(xen.BlkDataGFN + dataPages)
	kernel := make([]byte, hw.PageSize)
	copy(kernel, "FIDELIUS-SERVE-TENANT-KERNEL")

	for i := 0; i < cfg.Tenants; i++ {
		t := &tenant{
			idx:     i,
			name:    fmt.Sprintf("tenant-%d", i),
			pending: make(map[uint64]*genOp),
			nextID:  1,
		}
		// Every tenant boots its own owner bundle: transport keys are
		// fresh per image, so every tenant has a distinct launch
		// measurement for admission to check.
		bundle, _, err := core.PrepareGuest(owner, platformPub, kernel, nil)
		if err != nil {
			return nil, err
		}
		t.bundle = bundle
		t.expectMeasure = [32]byte(bundle.Image.Measurement)
		if tampered[i] {
			t.expectMeasure[0] ^= 0xA5 // supply-chain / rollback tampering
		}

		d, err := f.LaunchVM(t.name, tenantMemPages, bundle)
		if err != nil {
			return nil, err
		}
		t.dom = d
		t.kbase = f.KernelBase(d, bundle) * hw.PageSize
		t.disk = disk.New(diskSectors)
		if _, err := f.AttachProtectedDisk(d, t.disk, dataPages, BlkPort, nil); err != nil {
			return nil, err
		}
		// The serve ring rides directly after the block data pages; its
		// sharing must be pre-declared to the gatekeeper like any other.
		ringPages := 2 * ringPagesPerDir
		if err := f.PreShare(d.ID, xen.Dom0, serveGFN, uint64(ringPages), 0); err != nil {
			return nil, err
		}
		pas, err := s.X.SharePages(d, serveGFN, ringPages)
		if err != nil {
			return nil, err
		}
		t.reqPAs, t.respPAs = pas[:ringPagesPerDir], pas[ringPagesPerDir:]
		d.Info.ServeGFN = serveGFN
		d.Info.ServePort = DoorbellPort
		d.Info.ServeFrames = ringFrames
		// Both devices are attached; publish the write-once start info.
		if err := s.X.WriteStartInfo(d); err != nil {
			return nil, err
		}
		s.X.Events.Bind(d.ID, DoorbellPort, s.fillHandler(t))
		s.X.Events.Bind(d.ID, CompletionPort, s.drainHandler(t))

		t.gen = buildLoad(i, cfg.ClientsPerTenant, cfg.OpsPerClient, cfg.KeySpace,
			cfg.RatePerMCycle, cfg.PutFrac, cfg.DelFrac, valueBytes, clientWindow,
			rand.New(rand.NewSource(cfg.Seed+int64(i)+1)))
		t.lat = s.hub().Reg.Histogram("serve.latency", telemetry.ServeLatencyBuckets, "tenant", t.name)

		// Attestation-gated admission: verify first, then (and only
		// then) provision the session data key.
		s.admit(t, rng)
		s.tenants = append(s.tenants, t)
	}
	return s, nil
}

// Run schedules every tenant VM until all sessions drain, then records
// the elapsed cycle window for throughput accounting. Serial by default
// (deterministic); cfg.Parallel uses the concurrent scheduler.
func (s *Service) Run() map[xen.DomID]error {
	start := s.hub().Now()
	s.started = start
	doms := make([]*xen.Domain, 0, len(s.tenants))
	for _, t := range s.tenants {
		t.gen.rebase(start)
		s.X.StartVCPU(t.dom, s.guestMain(t))
		doms = append(doms, t.dom)
	}
	var errs map[xen.DomID]error
	if s.cfg.Parallel {
		errs = s.X.ScheduleParallel(doms, s.cfg.Width)
	} else {
		errs = s.X.Schedule(doms)
	}
	s.elapsed = s.hub().Now() - start
	s.ran = true
	return errs
}

// Shutdown tears the tenant VMs down.
func (s *Service) Shutdown() error {
	for _, t := range s.tenants {
		if err := s.F.ShutdownVM(t.dom); err != nil {
			return err
		}
	}
	return nil
}

// readPA / writePA move one sector between host memory and a buffer, the
// same untrusted-host path the block backend uses.
func (s *Service) readPA(pa hw.PhysAddr, buf []byte) error {
	return s.X.M.Ctl.Read(hw.Access{PA: pa}, buf)
}

func (s *Service) writePA(pa hw.PhysAddr, data []byte) error {
	return s.X.M.Ctl.Write(hw.Access{PA: pa}, data)
}

// sessionDone reports whether a tenant will never produce more work.
func (t *tenant) sessionDone() bool {
	if t.rejected {
		return true
	}
	return t.keyAcked && t.gen.exhausted() && len(t.pending) == 0
}

// fillHandler services the guest's doorbell: it injects every due
// request (admission key first, then open-loop arrivals) into the ring
// frames and publishes the batch count, setting the stop flag once the
// session has fully drained. Runs in host context under the machine's
// gate lock, while the guest vCPU is parked in the hypercall exit.
//
// The posted batch size is adaptive. The handler tracks the tenant's
// arrival rate (EWMA of interarrival gaps) and from it a depth target:
// how many ops arrive inside adaptAmortCycles. When mutations are due
// but fewer than the target, it may answer the doorbell *empty* — the
// guest halts a quantum and rings again, by which time more arrivals
// are due — so the eventual group commit carries a deeper span and its
// two write seeks amortise further. The hold is bounded by what the
// hold itself adds: once the handler has answered empty for
// HoldBudgetCycles since the streak began, the batch posts no matter
// how shallow. The budget deliberately ignores how long the oldest op
// has already queued — that delay is sunk, and gating on it would shut
// the policy off exactly at saturation, where batch formation pays the
// most. A hold is also refused outright once the schedule has no
// arrivals left beyond now: the batch can never get deeper, so waiting
// would burn the whole budget as dead time at the tail of a run. At a
// trickle the target is 1 and every op posts immediately.
func (s *Service) fillHandler(t *tenant) func() error {
	return func() error {
		hub := s.hub()
		now := hub.Now()
		var frame [SectorSize]byte
		n := uint32(0)
		if t.admitted && !t.keySent {
			// The session data key goes first — and only exists on an
			// admitted session.
			if err := encodeRequest(frame[:], 0, OpInstallKey, "", t.dataKey[:]); err != nil {
				return err
			}
			if err := s.writePA(framePA(t.reqPAs, n+1), frame[:]); err != nil {
				return err
			}
			t.pending[0] = &genOp{kind: OpInstallKey, arrival: now}
			t.keySent = true
			n++
		}
		if t.keySent {
			if n == 0 && s.cfg.HoldBudgetCycles > 0 {
				due, muts, future := t.gen.duePressure(now, ringFrames)
				if muts > 0 && future && due < t.depthTarget() {
					if t.holdSince == 0 {
						t.holdSince = now
					}
					if now-t.holdSince < uint64(s.cfg.HoldBudgetCycles) {
						t.holds++
						hub.M.ServeHolds.Inc()
						var ctl [SectorSize]byte
						encodeReqCtl(ctl[:], 0, 0)
						return s.writePA(framePA(t.reqPAs, 0), ctl[:])
					}
				}
			}
			t.holdSince = 0
			for n < ringFrames {
				op := t.gen.nextDue(now)
				if op == nil {
					break
				}
				id := t.nextID
				t.nextID++
				t.gen.markInjected(op)
				t.observeArrival(op.arrival)
				key, kind := t.gen.key(op), uint32(op.kind)
				var val []byte
				if kind == OpPut {
					val = t.gen.value(op)
				}
				if err := encodeRequest(frame[:], id, kind, key, val); err != nil {
					return err
				}
				if kind == OpPut {
					// Values cross the host-visible ring encrypted under
					// the session key the client minted at admission.
					v := frame[reqHeader+len(key):]
					xorSession(t.dataKey, key, v[:len(val)])
				}
				if err := s.writePA(framePA(t.reqPAs, n+1), frame[:]); err != nil {
					return err
				}
				t.pending[id] = op
				if hub.Tracing() {
					hub.EmitDetail(telemetry.KindServeReq, uint32(t.dom.ID), uint32(t.dom.ASID),
						0, id, uint64(kind), OpName(kind))
				}
				n++
			}
		}
		var flags uint32
		if n == 0 && t.sessionDone() {
			flags = FlagStop
		}
		if n > 0 {
			hub.M.ServeBatchDepth.Observe(uint64(n))
		}
		var ctl [SectorSize]byte
		encodeReqCtl(ctl[:], n, flags)
		return s.writePA(framePA(t.reqPAs, 0), ctl[:])
	}
}

// drainHandler services the guest's completion kick: it matches response
// frames to pending ops, records arrival-to-response latency into the
// global and per-tenant histograms, emits the serve-request span parented
// under the scheduler quantum that completed it, and accounts deadlines
// and response correctness. Runs under the machine's gate lock.
func (s *Service) drainHandler(t *tenant) func() error {
	return func() error {
		hub := s.hub()
		var ctl [SectorSize]byte
		if err := s.readPA(framePA(t.respPAs, 0), ctl[:]); err != nil {
			return err
		}
		count, err := decodeRespCtl(ctl[:])
		if err != nil {
			return err
		}
		if count > ringFrames {
			return fmt.Errorf("serve: guest posted %d responses", count)
		}
		now := hub.Now()
		var frame [SectorSize]byte
		for i := uint32(0); i < count; i++ {
			if err := s.readPA(framePA(t.respPAs, i+1), frame[:]); err != nil {
				return err
			}
			id, status, val, err := decodeResponse(frame[:])
			if err != nil {
				return err
			}
			op, ok := t.pending[id]
			if !ok {
				t.stray++
				continue
			}
			delete(t.pending, id)
			if op.kind == OpInstallKey {
				if status == StatusOK {
					t.keyAcked = true
				}
				continue
			}
			t.gen.markDone(op)
			lat := now - op.arrival
			// serve.ops counts ops answered definitively (found or
			// not-found) — the same rule the guest's console accounting
			// uses, so the two agree even on runs where commits fail and
			// ops come back errored.
			if status == StatusOK || status == StatusNotFound {
				hub.M.ServeOps.Inc()
			} else {
				t.errs++
			}
			hub.M.ServeLatency.Observe(lat)
			t.lat.Observe(lat)
			t.ops++
			switch op.kind {
			case OpGet:
				t.gets++
			case OpPut:
				t.puts++
			case OpDelete:
				t.dels++
			}
			if lat > deadlineCycles {
				hub.M.ServeTimeouts.Inc()
				t.timeouts++
			}
			if op.kind == OpGet && status == StatusOK {
				xorSession(t.dataKey, t.gen.key(op), val) // ring carries ciphertext
			}
			if !t.gen.responseOK(op, status, val) {
				t.mismatches++
			}
			if hub.Tracing() {
				hub.CompleteSpan("serve-request", uint32(t.dom.ID), uint32(t.dom.ASID),
					hub.Ambient(), op.arrival, now,
					telemetry.Attr{Key: "tenant", Val: t.name},
					telemetry.Attr{Key: "op", Val: OpName(uint32(op.kind))})
				hub.EmitDetail(telemetry.KindServeDone, uint32(t.dom.ID), uint32(t.dom.ASID),
					lat, id, lat, OpName(uint32(op.kind)))
			}
		}
		// Zero the count so a duplicate kick cannot double-account.
		encodeRespCtl(ctl[:], 0)
		return s.writePA(framePA(t.respPAs, 0), ctl[:])
	}
}

// sessionKeystream derives the XOR keystream block i for a record key
// under the session data key — shared by the guest (encrypt on put,
// decrypt on get) and by tests proving ring/disk bytes are ciphertext.
func sessionKeystream(dataKey [32]byte, recordKey string, block int) [32]byte {
	// Sized for the longest ring key, so the hash input stays on the stack.
	var in [32 + MaxKeyLen + 8]byte
	b := append(in[:0], dataKey[:]...)
	b = append(b, recordKey...)
	b = binary.LittleEndian.AppendUint64(b, uint64(block))
	return sha256.Sum256(b)
}

// xorSession applies the session cipher in place over data.
func xorSession(dataKey [32]byte, recordKey string, data []byte) {
	for i := 0; i < len(data); i += 32 {
		ks := sessionKeystream(dataKey, recordKey, i/32)
		for j := i; j < i+32 && j < len(data); j++ {
			data[j] ^= ks[j-i]
		}
	}
}
