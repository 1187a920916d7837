package sev

import (
	"crypto/ecdh"
	"crypto/hmac"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fidelius/internal/cycles"
	"fidelius/internal/hw"
	"fidelius/internal/lockrank"
	"fidelius/internal/parallel"
	"fidelius/internal/telemetry"
)

// State is the lifecycle state of a guest context inside the firmware.
// SEND_UPDATE and RECEIVE_UPDATE are only legal in the sending/receiving
// states — the constraint that forces Fidelius to keep the s-dom and r-dom
// helper contexts around for I/O encryption (Section 4.3.5).
type State int

// Guest context states.
const (
	StateInvalid State = iota
	StateLaunching
	StateRunning
	StateSending
	StateReceiving
	StateSent
)

func (s State) String() string {
	switch s {
	case StateInvalid:
		return "invalid"
	case StateLaunching:
		return "launching"
	case StateRunning:
		return "running"
	case StateSending:
		return "sending"
	case StateReceiving:
		return "receiving"
	case StateSent:
		return "sent"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Handle identifies a guest context inside the firmware. Handles are the
// hypervisor-visible name of a context; the paper's key-sharing attack
// works precisely because the hypervisor controls the handle↔ASID binding.
type Handle uint32

// Errors returned by firmware commands.
var (
	ErrNotInitialized = errors.New("sev: platform not initialized")
	ErrUnauthorized   = errors.New("sev: command issued outside the authorized context")
	ErrBadHandle      = errors.New("sev: invalid guest handle")
	ErrBadState       = errors.New("sev: command illegal in current state")
	ErrASIDInUse      = errors.New("sev: asid already active for another handle")
	ErrASIDDirty      = errors.New("sev: asid retired without DF_FLUSH")
	ErrActive         = errors.New("sev: guest still activated")
	ErrBadMeasurement = errors.New("sev: measurement mismatch")
	ErrBadTag         = errors.New("sev: transport tag verification failed")
	ErrNotAligned     = errors.New("sev: buffer not block aligned")
	ErrBadSequence    = errors.New("sev: receive_update out of sequence")
	ErrBufferSize     = errors.New("sev: send_update buffer is not one page per pfn")
)

// Packet is one SEND_UPDATE output / RECEIVE_UPDATE input: a chunk of
// guest data re-encrypted under the transport key, with its sequence
// number (used as the CTR tweak) and integrity tag. A SEND_UPDATE packet's
// Data aliases the buffer its caller passed in.
type Packet struct {
	Seq  uint64
	Data []byte
	Tag  [32]byte
}

// Context is one guest's SEV state inside the firmware.
type Context struct {
	handle    Handle
	state     State
	asid      hw.ASID // 0 = not activated
	kvek      hw.Key
	cipher    *hw.PageCipher
	transport *session // nil outside a SEND/RECEIVE session
	measure   Measurement
	seq       uint64
	policy    uint32

	// gek is the customized key of the Section 8 extension (nil until
	// SETENC_GEK), expanded like a transport session.
	gek *session
}

// setTransport installs a transport session built from tk, scrubbing any
// previous one.
func (c *Context) setTransport(tk TransportKeys) {
	c.dropTransport()
	c.transport = newSession(tk)
}

// dropTransport scrubs and forgets the transport session, so the context
// holds no usable transport key.
func (c *Context) dropTransport() {
	if c.transport != nil {
		c.transport.scrub()
		c.transport = nil
	}
}

// Firmware is the SEV firmware in the secure processor. All commands are
// issued by host software (the hypervisor, or Fidelius once it has taken
// the SEV metadata away from the hypervisor); the firmware itself is
// inside the trust boundary.
type Firmware struct {
	ctl         *hw.Controller
	priv        *ecdh.PrivateKey
	initialized bool

	// mu (lock rank: firmware) guards the shared tables below — the
	// context directory, the handle counter, the ASID bindings and the
	// dirty-ASID set — so firmware commands from concurrent lifecycle
	// operations cannot corrupt them. Commands against the SAME handle
	// are still the caller's job to serialize: the returned *Context is
	// mutated outside the lock, exactly as real PSP mailboxes process
	// one command per guest at a time.
	mu     lockrank.Mutex
	ctxs   map[Handle]*Context
	next   Handle
	active map[hw.ASID]Handle

	// dirty records ASIDs that were deactivated and not yet scrubbed by
	// DF_FLUSH. Real SEV refuses to ACTIVATE such an ASID because stale
	// cache lines tagged with it would decrypt under the new guest's key
	// — the "security-by-crash" reuse surface CROSSLINE exploits. The
	// model enforces the same refusal.
	dirty map[hw.ASID]bool

	// attest lazily holds the attestation signing identity.
	attest *attestKey

	// Authorize, when set, gates every guest-context command. Fidelius
	// installs a check requiring its trusted context, modelling the
	// self-maintained SEV metadata of Section 4.2.3: the hypervisor can
	// no longer issue ACTIVATE/DEACTIVATE and abuse the handle-ASID
	// binding.
	Authorize func() bool

	// pool bounds the bulk page-crypto fan-out of the *Pages commands.
	pool *parallel.Pool
}

// NewFirmware returns an uninitialised firmware attached to the memory
// controller.
func NewFirmware(ctl *hw.Controller) *Firmware {
	f := &Firmware{
		ctl:    ctl,
		ctxs:   make(map[Handle]*Context),
		next:   1,
		active: make(map[hw.ASID]Handle),
		dirty:  make(map[hw.ASID]bool),
		pool:   parallel.New(0),
	}
	f.mu.Init(lockrank.RankFirmware, nil)
	if ctl != nil && ctl.Telem != nil {
		f.pool.Register(ctl.Telem.Reg)
		f.pool.AttachHub(ctl.Telem)
	}
	return f
}

// SetLockInfo re-ranks the firmware table lock with a shared contention
// counter (the machine wires this up so firmware-lock waits show in the
// xen.lock_waits metric family).
func (f *Firmware) SetLockInfo(rank lockrank.Rank, waits *atomic.Uint64) {
	f.mu.Init(rank, waits)
}

// Pool exposes the bulk-crypto worker pool, so callers (and benchmarks)
// can tune its width.
func (f *Firmware) Pool() *parallel.Pool { return f.pool }

func (f *Firmware) charge(n uint64) { f.ctl.Cycles.Charge(n) }

// command accounts one successfully executed firmware command: the global
// SEV counter, a per-command labelled counter, and (when tracing) a span
// event carrying the command name and guest handle. Commands are rare
// relative to memory traffic, so the labelled-counter map lookup is fine
// here.
func (f *Firmware) command(name string, h Handle) {
	if f.ctl == nil {
		return
	}
	t := f.ctl.Telem
	if t == nil {
		return
	}
	t.M.SEVCommands.Inc()
	if t.Tracing() {
		t.EmitDetail(telemetry.KindSEVCommand, 0, 0, cycles.SEVCommand, uint64(h), 0, name)
		// The command cost was already charged, so the span ends now and
		// covers the fixed command constant; its parent is whatever scope
		// is ambient (a launch, a migration round, a quantum).
		asid := uint32(f.asidOf(h))
		end := t.Now()
		start := end
		if start >= cycles.SEVCommand {
			start = end - cycles.SEVCommand
		}
		t.CompleteSpan("sev:"+name, t.VMForASID(asid), asid, t.Ambient(), start, end)
	}
}

// asidOf reads a handle's ASID binding under the table lock (0 when the
// handle is unknown or inactive).
func (f *Firmware) asidOf(h Handle) hw.ASID {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.ctxs[h]; ok {
		return c.asid
	}
	return 0
}

// auditing reports whether the platform ledger is armed, so error paths
// can skip building detail strings entirely when it is not.
func (f *Firmware) auditing() bool {
	return f.ctl != nil && f.ctl.Telem.Auditing()
}

// audit appends a security record to the platform's audit ledger (no-op
// when none is armed), resolving the VM from the context's ASID.
func (f *Firmware) audit(class string, asid hw.ASID, detail string) {
	if f.ctl == nil {
		return
	}
	t := f.ctl.Telem
	t.Audit(class, t.VMForASID(uint32(asid)), detail)
}

// openGuarded is openPacket plus an audit record on failure — a transport
// packet whose tag does not verify is a migration-stream tampering
// attempt caught in the act.
func (f *Firmware) openGuarded(c *Context, pkt Packet, plain []byte) ([]byte, error) {
	plain, err := openPacket(c.transport, pkt, plain)
	if err != nil && f.auditing() {
		f.audit("transport-tag", c.asid, err.Error())
	}
	return plain, err
}

// setState moves a context through its lifecycle and records the
// transition in the audit ledger: "Insecure Until Proven Updated" showed
// that unrecorded firmware state is exactly what a rollback hides behind.
func (f *Firmware) setState(c *Context, to State) {
	from := c.state
	c.state = to
	if from != to && f.auditing() {
		f.audit("sev-state", c.asid,
			"handle "+fmt.Sprint(uint32(c.handle))+": "+from.String()+" -> "+to.String())
	}
}

// Init generates the platform identity and moves the platform to the
// initialized state (the SEV INIT command Fidelius issues during system
// initialisation, Section 4.3.1).
func (f *Firmware) Init() error {
	if f.initialized {
		return nil
	}
	priv, err := GenerateIdentity()
	if err != nil {
		return err
	}
	f.priv = priv
	f.initialized = true
	f.charge(cycles.SEVCommand)
	f.command("init", 0)
	return nil
}

// PublicKey returns the platform's ECDH public key used in key agreement.
func (f *Firmware) PublicKey() (*ecdh.PublicKey, error) {
	if !f.initialized {
		return nil, ErrNotInitialized
	}
	return f.priv.PublicKey(), nil
}

func (f *Firmware) guard() error {
	if f.Authorize != nil && !f.Authorize() {
		if f.auditing() {
			f.audit("sev-unauthorized", 0, ErrUnauthorized.Error())
		}
		return ErrUnauthorized
	}
	return nil
}

func (f *Firmware) ctx(h Handle) (*Context, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	c, ok := f.ctxs[h]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadHandle, h)
	}
	return c, nil
}

func (f *Firmware) newContext() (*Context, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	if !f.initialized {
		return nil, ErrNotInitialized
	}
	kvek, err := randomKey()
	if err != nil {
		return nil, err
	}
	c := &Context{kvek: hw.Key(kvek)}
	c.cipher, err = hw.NewPageCipher(c.kvek)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	c.handle = f.next
	f.ctxs[f.next] = c
	f.next++
	f.mu.Unlock()
	return c, nil
}

// LaunchStart creates a guest context with a fresh Kvek and returns its
// handle.
func (f *Firmware) LaunchStart(policy uint32) (Handle, error) {
	c, err := f.newContext()
	if err != nil {
		return 0, err
	}
	f.setState(c, StateLaunching)
	c.policy = policy
	f.charge(cycles.SEVCommand)
	f.command("launch-start", c.handle)
	return c.handle, nil
}

// LaunchHelper creates a context sharing the Kvek of an existing guest.
// This is Fidelius's use of the LAUNCH API to build the s-dom and r-dom
// helper contexts for SEV-based I/O encryption.
func (f *Firmware) LaunchHelper(h Handle) (Handle, error) {
	base, err := f.ctx(h)
	if err != nil {
		return 0, err
	}
	c, err := f.newContext()
	if err != nil {
		return 0, err
	}
	c.kvek = base.kvek
	c.cipher = base.cipher
	f.setState(c, StateRunning)
	c.policy = base.policy
	f.charge(cycles.SEVCommand)
	f.command("launch-helper", c.handle)
	return c.handle, nil
}

// LaunchFinish completes launching; the guest context becomes runnable.
func (f *Firmware) LaunchFinish(h Handle) error {
	c, err := f.ctx(h)
	if err != nil {
		return err
	}
	if c.state != StateLaunching {
		return fmt.Errorf("%w: launch_finish in %v", ErrBadState, c.state)
	}
	f.setState(c, StateRunning)
	f.charge(cycles.SEVCommand)
	f.command("launch-finish", h)
	return nil
}

// Activate installs the context's Kvek into the memory controller under
// the given ASID. The firmware checks only liveness of the binding, not
// its rightfulness — the handle↔ASID relationship is hypervisor-managed
// state, which is the key-sharing attack surface Fidelius closes by
// self-maintaining the SEV metadata (Section 4.2.3).
func (f *Firmware) Activate(h Handle, asid hw.ASID) error {
	c, err := f.ctx(h)
	if err != nil {
		return err
	}
	if asid == hw.HostASID {
		return fmt.Errorf("sev: asid 0 is reserved for the host key")
	}
	f.mu.Lock()
	if owner, busy := f.active[asid]; busy && owner != h {
		f.mu.Unlock()
		if f.auditing() {
			f.audit("asid-reuse", asid,
				fmt.Sprintf("activate handle %d on asid %d held by handle %d", h, asid, owner))
		}
		return fmt.Errorf("%w: asid %d held by handle %d", ErrASIDInUse, asid, owner)
	}
	if f.dirty[asid] {
		// CROSSLINE's opening move: rebind a previously used ASID
		// without scrubbing the data fabric, so stale lines tagged with
		// it decrypt under the new guest's key. Real SEV makes this a
		// hard ACTIVATE failure only after DF_FLUSH discipline is
		// enforced; the model refuses unconditionally.
		f.mu.Unlock()
		if f.auditing() {
			f.audit("asid-reuse", asid,
				fmt.Sprintf("activate handle %d on asid %d retired without DF_FLUSH", h, asid))
		}
		return fmt.Errorf("%w: asid %d", ErrASIDDirty, asid)
	}
	if c.asid != 0 && c.asid != asid {
		prev := c.asid
		f.mu.Unlock()
		if f.auditing() {
			f.audit("asid-reuse", prev,
				fmt.Sprintf("rebind of handle %d from asid %d to %d", h, prev, asid))
		}
		return fmt.Errorf("sev: handle %d already active as asid %d", h, prev)
	}
	if err := f.ctl.Eng.Install(asid, c.kvek); err != nil {
		f.mu.Unlock()
		return err
	}
	c.asid = asid
	f.active[asid] = h
	f.mu.Unlock()
	f.charge(cycles.SEVCommand)
	f.command("activate", h)
	return nil
}

// Deactivate unbinds the context's ASID and removes its key from the
// memory controller. The ASID is marked dirty: until a DF_FLUSH scrubs
// the fabric, Activate refuses to hand it to any guest.
func (f *Firmware) Deactivate(h Handle) error {
	c, err := f.ctx(h)
	if err != nil {
		return err
	}
	f.mu.Lock()
	if c.asid != 0 {
		f.ctl.Eng.Uninstall(c.asid)
		delete(f.active, c.asid)
		f.dirty[c.asid] = true
		c.asid = 0
	}
	f.mu.Unlock()
	f.charge(cycles.SEVCommand)
	f.command("deactivate", h)
	return nil
}

// Decommission erases the guest context. The guest must be deactivated.
func (f *Firmware) Decommission(h Handle) error {
	c, err := f.ctx(h)
	if err != nil {
		return err
	}
	f.mu.Lock()
	if c.asid != 0 {
		asid := c.asid
		f.mu.Unlock()
		return fmt.Errorf("%w: handle %d as asid %d", ErrActive, h, asid)
	}
	delete(f.ctxs, h)
	f.mu.Unlock()
	c.dropTransport()
	if c.gek != nil {
		c.gek.scrub()
		c.gek = nil
	}
	f.charge(cycles.SEVCommand)
	f.command("decommission", h)
	return nil
}

// DFFlush is the DF_FLUSH command: a data-fabric write-back/invalidate
// that scrubs every cache line still tagged with a retired ASID, after
// which those ASIDs may be activated again. It deliberately bypasses
// the Authorize guard — flushing only destroys stale key state, so the
// hypervisor being able to issue it grants nothing (whereas SKIPPING it
// is what CROSSLINE exploits, and Activate enforces that it cannot be
// skipped).
func (f *Firmware) DFFlush() error {
	if !f.initialized {
		return ErrNotInitialized
	}
	f.mu.Lock()
	f.dirty = make(map[hw.ASID]bool)
	f.mu.Unlock()
	f.charge(cycles.DFFlush)
	f.command("df-flush", 0)
	return nil
}

// SendStart opens a SEND session: it generates fresh transport keys,
// wraps them under the ECDH agreement with peerPub and the nonce, and
// moves the context to the sending state (stopping guest execution — the
// reason Fidelius does not support live migration, Section 4.3.6).
func (f *Firmware) SendStart(h Handle, peerPub *ecdh.PublicKey, nonce []byte) (WrappedKeys, error) {
	c, err := f.ctx(h)
	if err != nil {
		return WrappedKeys{}, err
	}
	if c.state != StateRunning {
		return WrappedKeys{}, fmt.Errorf("%w: send_start in %v", ErrBadState, c.state)
	}
	tek, err := randomKey()
	if err != nil {
		return WrappedKeys{}, err
	}
	tik, err := randomKey()
	if err != nil {
		return WrappedKeys{}, err
	}
	tk := TransportKeys{TEK: tek, TIK: tik}
	shared, err := ECDHAgree(f.priv, peerPub)
	if err != nil {
		return WrappedKeys{}, err
	}
	w, err := wrapKeys(deriveKEK(shared, nonce), tk)
	if err != nil {
		return WrappedKeys{}, err
	}
	c.setTransport(tk)
	f.setState(c, StateSending)
	c.measure = Measurement{}
	c.seq = 0
	f.charge(cycles.SEVCommand)
	f.command("send-start", h)
	return w, nil
}

// sealPacket encrypts data in place under the session's TEK and tags it
// with its TIK; the returned packet aliases data.
func sealPacket(s *session, seq uint64, data []byte) Packet {
	sc := s.get()
	defer s.put(sc)
	s.xorWith(sc, seq, data, data)
	return Packet{Seq: seq, Data: data, Tag: s.tagWith(sc, seq, data)}
}

// openPacket verifies the packet's tag and decrypts its payload into
// plain, which must be len(pkt.Data) bytes; the packet is left untouched.
func openPacket(s *session, pkt Packet, plain []byte) ([]byte, error) {
	sc := s.get()
	defer s.put(sc)
	want := s.tagWith(sc, pkt.Seq, pkt.Data)
	if !hmac.Equal(want[:], pkt.Tag[:]) {
		return nil, ErrBadTag
	}
	s.xorWith(sc, pkt.Seq, plain, pkt.Data)
	return plain, nil
}

// SendIO is the I/O-path variant of SEND_UPDATE: it reads n bytes of
// guest data at pa (Kvek-encrypted) and returns the TEK ciphertext, with
// the caller-chosen per-sector sequence tweak but no integrity tag. The
// paper's I/O protection provides confidentiality only; integrity is the
// hardware suggestion of Section 8.
func (f *Firmware) SendIO(h Handle, pa hw.PhysAddr, n int, seq uint64) ([]byte, error) {
	c, err := f.ctx(h)
	if err != nil {
		return nil, err
	}
	if c.state != StateSending {
		return nil, fmt.Errorf("%w: send_io in %v", ErrBadState, c.state)
	}
	if pa%hw.BlockSize != 0 || n%hw.BlockSize != 0 {
		return nil, ErrNotAligned
	}
	buf := make([]byte, n)
	if err := f.ctl.Mem.ReadRaw(pa, buf); err != nil {
		return nil, err
	}
	c.cipher.DecryptLine(pa, buf)
	c.transport.xor(seq, buf, buf)
	f.charge(uint64(n) / hw.BlockSize * cycles.AESBlockSEV)
	f.command("send-io", h)
	return buf, nil
}

// ReceiveIO is the I/O-path variant of RECEIVE_UPDATE: it decrypts TEK
// ciphertext with the per-sector sequence tweak and writes it
// Kvek-encrypted at pa.
func (f *Firmware) ReceiveIO(h Handle, pa hw.PhysAddr, data []byte, seq uint64) error {
	c, err := f.ctx(h)
	if err != nil {
		return err
	}
	if c.state != StateReceiving {
		return fmt.Errorf("%w: receive_io in %v", ErrBadState, c.state)
	}
	if pa%hw.BlockSize != 0 || len(data)%hw.BlockSize != 0 {
		return ErrNotAligned
	}
	plain := make([]byte, len(data))
	c.transport.xor(seq, plain, data)
	c.cipher.EncryptLine(pa, plain)
	f.charge(uint64(len(plain)) / hw.BlockSize * cycles.AESBlockSEV)
	f.command("receive-io", h)
	return f.ctl.FirmwareWrite(pa, plain)
}

// SendCancel aborts a SEND session (the SEND_CANCEL command): the
// transport session (keys, expanded schedule and keyed HMAC states) and
// the partial measurement are scrubbed and the context
// returns to the running state, so a failed migration resumes the source
// guest instead of leaving it stranded mid-send. Cancelling from the
// sent state is also allowed: in this retrofit the memory key never
// leaves the controller during a send, so until the owner destroys the
// context "sent" only records a finalized transport measurement — if the
// target rejects that measurement, the source rolls back and keeps
// running.
func (f *Firmware) SendCancel(h Handle) error {
	c, err := f.ctx(h)
	if err != nil {
		return err
	}
	if c.state != StateSending && c.state != StateSent {
		return fmt.Errorf("%w: send_cancel in %v", ErrBadState, c.state)
	}
	c.dropTransport()
	c.measure = Measurement{}
	c.seq = 0
	f.setState(c, StateRunning)
	f.charge(cycles.SEVCommand)
	f.command("send-cancel", h)
	return nil
}

// SendFinish closes the SEND session, scrubbing its transport keys, and
// returns the snapshot measurement (the paper's Mvm).
func (f *Firmware) SendFinish(h Handle) (Measurement, error) {
	c, err := f.ctx(h)
	if err != nil {
		return Measurement{}, err
	}
	if c.state != StateSending {
		return Measurement{}, fmt.Errorf("%w: send_finish in %v", ErrBadState, c.state)
	}
	c.dropTransport()
	f.setState(c, StateSent)
	f.charge(cycles.SEVCommand)
	f.command("send-finish", h)
	return c.measure, nil
}

// ReceiveStart opens a RECEIVE session: it creates a context with a fresh
// Kvek and unwraps the transport keys using the ECDH agreement with the
// origin's public key and nonce.
func (f *Firmware) ReceiveStart(w WrappedKeys, originPub *ecdh.PublicKey, nonce []byte) (Handle, error) {
	if !f.initialized {
		return 0, ErrNotInitialized
	}
	shared, err := ECDHAgree(f.priv, originPub)
	if err != nil {
		return 0, err
	}
	tk, err := unwrapKeys(deriveKEK(shared, nonce), w)
	if err != nil {
		return 0, err
	}
	c, err := f.newContext()
	if err != nil {
		return 0, err
	}
	c.setTransport(tk)
	f.setState(c, StateReceiving)
	f.charge(cycles.SEVCommand)
	f.command("receive-start", c.handle)
	return c.handle, nil
}

// ReceiveHelperStart opens a RECEIVE session on a helper context that
// shares an existing guest's Kvek — the r-dom of Fidelius's I/O path.
func (f *Firmware) ReceiveHelperStart(base Handle, w WrappedKeys, originPub *ecdh.PublicKey, nonce []byte) (Handle, error) {
	h, err := f.LaunchHelper(base)
	if err != nil {
		return 0, err
	}
	shared, err := ECDHAgree(f.priv, originPub)
	if err != nil {
		return 0, err
	}
	tk, err := unwrapKeys(deriveKEK(shared, nonce), w)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	c := f.ctxs[h]
	f.mu.Unlock()
	c.setTransport(tk)
	f.setState(c, StateReceiving)
	f.command("receive-helper-start", h)
	return h, nil
}

// stagingPages recycles RECEIVE_UPDATE's plaintext staging pages,
// each live only from its packet's opening to its DRAM commit: a
// migration would otherwise allocate a page of garbage per page received.
var stagingPages = sync.Pool{New: func() any { return new([hw.PageSize]byte) }}

// stagingBuf is the buffer to open an n-byte packet into: the staging
// page when the packet carries a page, else a fresh buffer, which the
// size check after opening refuses.
func stagingBuf(page *[hw.PageSize]byte, n int) []byte {
	if n == hw.PageSize {
		return page[:]
	}
	return make([]byte, n)
}

// SendUpdatePages is SEND_UPDATE: it re-encrypts each guest page from
// Kvek to the transport key and returns one packet per pfn, with the
// per-page decrypt/seal work spread across the worker pool. Packet i is
// sealed into page i of dst, which the caller owns and must size at
// exactly len(pfns) pages: any other size is refused before anything is
// sealed. The packets alias dst, so they stay valid only until the caller
// reuses it. Sequence numbers are pre-assigned by slice index and the
// measurement chain folded serially afterwards, so one N-page call yields
// the same packets and measurement as N one-page calls in the same order.
func (f *Firmware) SendUpdatePages(h Handle, pfns []hw.PFN, dst []byte) ([]Packet, error) {
	c, err := f.ctx(h)
	if err != nil {
		return nil, err
	}
	if c.state != StateSending {
		return nil, fmt.Errorf("%w: send_update in %v", ErrBadState, c.state)
	}
	if len(dst) != len(pfns)*hw.PageSize {
		return nil, fmt.Errorf("%w: %d bytes for %d pages", ErrBufferSize, len(dst), len(pfns))
	}
	base := c.seq
	pkts := make([]Packet, len(pfns))
	if err := f.pool.ForEach(len(pfns), func(i int) error {
		page := dst[i*hw.PageSize : (i+1)*hw.PageSize : (i+1)*hw.PageSize]
		if err := f.ctl.Mem.ReadRaw(pfns[i].Addr(), page); err != nil {
			return err
		}
		c.cipher.DecryptPage(pfns[i].Addr(), page)
		pkts[i] = sealPacket(c.transport, base+uint64(i), page)
		return nil
	}); err != nil {
		return nil, err
	}
	c.seq = base + uint64(len(pfns))
	for i := range pkts {
		c.measure = measureChain(c.measure, pkts[i].Tag)
		f.charge(cycles.SEVCommand + cycles.PageCopy + hw.PageSize/hw.BlockSize*cycles.AESBlockSEV)
		f.command("send-update", h)
	}
	return pkts, nil
}

// ReceiveUpdatePages is RECEIVE_UPDATE: packet i is decrypted from the
// transport key and lands at pfns[i] re-encrypted with the context's Kvek.
// Packets must arrive in sequence order: the context tracks the next
// expected sequence number, so replayed or reordered packets are rejected
// before they can perturb the measurement chain. (The I/O commands use
// caller-chosen sector tweaks and are exempt.) Tag verification, transport
// decryption and Kvek re-encryption run across the worker pool; the
// measurement fold plus DRAM commit run serially in slice order, so one
// N-page call matches N one-page calls. A batch refused by its sequence,
// tag or size check commits nothing and leaves the sequence and
// measurement untouched, so the sender can retry with the genuine
// packets.
func (f *Firmware) ReceiveUpdatePages(h Handle, pfns []hw.PFN, pkts []Packet) error {
	c, err := f.ctx(h)
	if err != nil {
		return err
	}
	if c.state != StateReceiving {
		return fmt.Errorf("%w: receive_update in %v", ErrBadState, c.state)
	}
	if len(pfns) != len(pkts) {
		return fmt.Errorf("sev: receive_update_pages: %d pfns, %d packets", len(pfns), len(pkts))
	}
	base := c.seq
	pages := make([]*[hw.PageSize]byte, len(pfns))
	defer func() {
		for _, p := range pages {
			if p != nil {
				stagingPages.Put(p)
			}
		}
	}()
	if err := f.pool.ForEach(len(pfns), func(i int) error {
		if pkts[i].Seq != base+uint64(i) {
			return fmt.Errorf("%w: got %d, want %d", ErrBadSequence, pkts[i].Seq, base+uint64(i))
		}
		pages[i] = stagingPages.Get().(*[hw.PageSize]byte)
		plain, err := f.openGuarded(c, pkts[i], stagingBuf(pages[i], len(pkts[i].Data)))
		if err != nil {
			return err
		}
		if len(plain) != hw.PageSize {
			return fmt.Errorf("sev: receive_update packet is %d bytes, want a page", len(plain))
		}
		c.cipher.EncryptPage(pfns[i].Addr(), plain)
		return nil
	}); err != nil {
		return err
	}
	c.seq = base + uint64(len(pfns))
	for i := range pfns {
		c.measure = measureChain(c.measure, pkts[i].Tag)
		f.charge(cycles.SEVCommand + cycles.PageCopy + hw.PageSize/hw.BlockSize*cycles.AESBlockSEV)
		f.command("receive-update", h)
		if err := f.ctl.FirmwareWrite(pfns[i].Addr(), pages[i][:]); err != nil {
			return err
		}
	}
	return nil
}

// ReceiveFinish verifies the accumulated measurement against the
// sender's Mvm and makes the context runnable, scrubbing the transport
// keys. A refused measurement leaves the session open.
func (f *Firmware) ReceiveFinish(h Handle, expect Measurement) error {
	c, err := f.ctx(h)
	if err != nil {
		return err
	}
	if c.state != StateReceiving {
		return fmt.Errorf("%w: receive_finish in %v", ErrBadState, c.state)
	}
	if c.measure != expect {
		if f.auditing() {
			f.audit("measurement-mismatch", c.asid,
				fmt.Sprintf("receive_finish on handle %d: migrated image does not match sender's Mvm", h))
		}
		return ErrBadMeasurement
	}
	c.dropTransport()
	f.setState(c, StateRunning)
	f.charge(cycles.SEVCommand)
	f.command("receive-finish", h)
	return nil
}
