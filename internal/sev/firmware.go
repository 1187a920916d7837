package sev

import (
	"crypto/ecdh"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"
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

// rule is one guest command's row of the state table.
type rule struct {
	from []State // states the context the command names may be in; nil for any
	to   State   // where the exit step moves the context; StateInvalid, which no command enters, leaves it in place
	gek  bool    // the context must hold a GEK
	free bool    // the exit step charges nothing: RECEIVE_HELPER_START's cost is the LAUNCH_HELPER it runs
}

// allows reports whether the command may run on a context in state s.
func (r rule) allows(s State) bool { return r.from == nil || slices.Contains(r.from, s) }

// table is the SEV API guest state machine, keyed by each command's span
// name; the entry step checks it and the exit step applies it. A command
// that makes a context from nothing runs from invalid, the state of a
// context not yet made. LAUNCH_HELPER and RECEIVE_HELPER_START name the
// base guest, in any state, and move the helper context they make.
var table = map[string]rule{
	"launch-start":         {from: []State{StateInvalid}, to: StateLaunching},
	"launch-helper":        {to: StateRunning},
	"launch-finish":        {from: []State{StateLaunching}, to: StateRunning},
	"activate":             {},
	"deactivate":           {},
	"decommission":         {},
	"send-start":           {from: []State{StateRunning}, to: StateSending},
	"send-update":          {from: []State{StateSending}},
	"send-io":              {from: []State{StateSending}},
	"send-cancel":          {from: []State{StateSending, StateSent}, to: StateRunning},
	"send-finish":          {from: []State{StateSending}, to: StateSent},
	"receive-start":        {from: []State{StateInvalid}, to: StateReceiving},
	"receive-helper-start": {to: StateReceiving, free: true},
	"receive-update":       {from: []State{StateReceiving}},
	"receive-io":           {from: []State{StateReceiving}},
	"receive-finish":       {from: []State{StateReceiving}, to: StateRunning},
	"attest-guest":         {from: []State{StateRunning}},
	"setenc-gek":           {},
	"enc":                  {gek: true},
	"dec":                  {gek: true},
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
	ErrNotAligned     = errors.New("sev: I/O buffer not block aligned or longer than a page")
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
	id          *identity // the platform key pair, from INIT on
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

// enter is the entry step of every guest command that names a context:
// the authorization guard, the handle lookup, and the table's check of
// the context's state and GEK.
func (f *Firmware) enter(name string, h Handle) (*Context, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	c, ok := f.ctxs[h]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadHandle, h)
	}
	r := table[name]
	if !r.allows(c.state) {
		return nil, fmt.Errorf("%w: %s in %v", ErrBadState, name, c.state)
	}
	if r.gek && c.gek == nil {
		return nil, ErrNoGEK
	}
	return c, nil
}

// exit is the exit step of every guest command charged the fixed command
// cost: the table's state move, the charge and the command's accounting,
// in that order. The move is recorded in the audit ledger: "Insecure
// Until Proven Updated" showed that unrecorded firmware state is exactly
// what a rollback hides behind.
func (f *Firmware) exit(name string, c *Context) {
	r := table[name]
	if r.to != StateInvalid {
		from := c.state
		c.state = r.to
		if f.auditing() {
			f.audit("sev-state", c.asid,
				"handle "+fmt.Sprint(uint32(c.handle))+": "+from.String()+" -> "+r.to.String())
		}
	}
	if !r.free {
		f.charge(cycles.SEVCommand)
	}
	f.command(name, c.handle)
}

// Init generates the platform identity and moves the platform to the
// initialized state (the SEV INIT command Fidelius issues during system
// initialisation, Section 4.3.1).
func (f *Firmware) Init() error {
	if f.initialized {
		return nil
	}
	id, err := newIdentity()
	if err != nil {
		return err
	}
	f.id = id
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
	return f.id.public(), nil
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
	c.policy = policy
	f.exit("launch-start", c)
	return c.handle, nil
}

// LaunchHelper creates a context sharing the Kvek of an existing guest.
// This is Fidelius's use of the LAUNCH API to build the s-dom and r-dom
// helper contexts for SEV-based I/O encryption.
func (f *Firmware) LaunchHelper(h Handle) (Handle, error) {
	base, err := f.enter("launch-helper", h)
	if err != nil {
		return 0, err
	}
	c, err := f.helper(base)
	if err != nil {
		return 0, err
	}
	return c.handle, nil
}

// helper makes a running context sharing base's Kvek and policy.
func (f *Firmware) helper(base *Context) (*Context, error) {
	c, err := f.newContext()
	if err != nil {
		return nil, err
	}
	c.kvek = base.kvek
	c.cipher = base.cipher
	c.policy = base.policy
	f.exit("launch-helper", c)
	return c, nil
}

// LaunchFinish completes launching; the guest context becomes runnable.
func (f *Firmware) LaunchFinish(h Handle) error {
	c, err := f.enter("launch-finish", h)
	if err != nil {
		return err
	}
	f.exit("launch-finish", c)
	return nil
}

// Activate installs the context's Kvek into the memory controller under
// the given ASID. The firmware checks only liveness of the binding, not
// its rightfulness — the handle↔ASID relationship is hypervisor-managed
// state, which is the key-sharing attack surface Fidelius closes by
// self-maintaining the SEV metadata (Section 4.2.3).
func (f *Firmware) Activate(h Handle, asid hw.ASID) error {
	c, err := f.enter("activate", h)
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
	f.exit("activate", c)
	return nil
}

// Deactivate unbinds the context's ASID and removes its key from the
// memory controller. The ASID is marked dirty: until a DF_FLUSH scrubs
// the fabric, Activate refuses to hand it to any guest.
func (f *Firmware) Deactivate(h Handle) error {
	c, err := f.enter("deactivate", h)
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
	f.exit("deactivate", c)
	return nil
}

// Decommission erases the guest context. The guest must be deactivated.
func (f *Firmware) Decommission(h Handle) error {
	c, err := f.enter("decommission", h)
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
	f.exit("decommission", c)
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
	c, err := f.enter("send-start", h)
	if err != nil {
		return WrappedKeys{}, err
	}
	tk, w, err := newWrappedKeys(f.id, peerPub, nonce)
	if err != nil {
		return WrappedKeys{}, err
	}
	c.setTransport(tk)
	c.measure = Measurement{}
	c.seq = 0
	f.exit("send-start", c)
	return w, nil
}

// sealPacket encrypts data in place under the session's TEK and tags it
// with its TIK; the returned packet aliases data.
func sealPacket(s *session, seq uint64, data []byte) Packet {
	s.xorWith(seq, data, data)
	return Packet{Seq: seq, Data: data, Tag: s.tagWith(seq, data)}
}

// openPacket verifies the packet's tag, all 32 bytes in constant time,
// and decrypts its payload into plain, which must be len(pkt.Data)
// bytes; the packet is left untouched.
func openPacket(s *session, pkt Packet, plain []byte) ([]byte, error) {
	want := s.tagWith(pkt.Seq, pkt.Data)
	if subtle.ConstantTimeCompare(want[:], pkt.Tag[:]) != 1 {
		return nil, ErrBadTag
	}
	s.xorWith(pkt.Seq, plain, pkt.Data)
	return plain, nil
}

// SendIO is the I/O-path variant of SEND_UPDATE: it reads len(dst)
// bytes of guest data at pa (Kvek-encrypted) and seals them into dst,
// which the caller owns, under the TEK's I/O transform, tweaked by the
// caller-chosen sector number, with no integrity tag. The paper's I/O
// protection provides confidentiality only; integrity is the hardware
// suggestion of Section 8.
func (f *Firmware) SendIO(h Handle, pa hw.PhysAddr, dst []byte, seq uint64) error {
	c, err := f.enter("send-io", h)
	if err != nil {
		return err
	}
	return f.ioOut(c, c.transport, "send-io", h, pa, dst, seq)
}

// ReceiveIO is the I/O-path variant of RECEIVE_UPDATE: it decrypts
// SendIO output with the same sector number and writes it
// Kvek-encrypted at pa. It opens data in place: on success data holds
// the Kvek ciphertext written at pa, never the plaintext.
func (f *Firmware) ReceiveIO(h Handle, pa hw.PhysAddr, data []byte, seq uint64) error {
	c, err := f.enter("receive-io", h)
	if err != nil {
		return err
	}
	return f.ioIn(c, c.transport, "receive-io", h, pa, data, seq)
}

// ioOut is the outbound body SEND_IO and ENC share after their entry
// step: it reads len(dst) bytes of guest memory at pa into dst, decrypts
// them under the context's Kvek and seals them under s as I/O chunk seq.
func (f *Firmware) ioOut(c *Context, s *session, name string, h Handle, pa hw.PhysAddr, dst []byte, seq uint64) error {
	if !ioChunk(pa, len(dst)) {
		return ErrNotAligned
	}
	if err := f.ctl.Mem.ReadRaw(pa, dst); err != nil {
		return err
	}
	c.cipher.DecryptLine(pa, dst)
	s.ioSeal(seq, dst)
	f.charge(uint64(len(dst)) / hw.BlockSize * cycles.AESBlockSEV)
	f.command(name, h)
	return nil
}

// ioIn is the inbound body RECEIVE_IO and DEC share: it opens I/O chunk
// seq under s in place, re-encrypts it under the context's Kvek and
// writes it at pa. A chunk past the installed memory is refused before
// it is opened, charged or counted.
func (f *Firmware) ioIn(c *Context, s *session, name string, h Handle, pa hw.PhysAddr, data []byte, seq uint64) error {
	if !ioChunk(pa, len(data)) {
		return ErrNotAligned
	}
	if err := f.ctl.Mem.Check(pa, len(data)); err != nil {
		return err
	}
	s.ioOpen(seq, data)
	c.cipher.EncryptLine(pa, data)
	f.charge(uint64(len(data)) / hw.BlockSize * cycles.AESBlockSEV)
	f.command(name, h)
	return f.ctl.FirmwareWrite(pa, data)
}

// ioChunk reports whether n bytes at pa make one I/O chunk: block
// aligned and at most one tweak span long, so no two chunks share a
// tweak.
func ioChunk(pa hw.PhysAddr, n int) bool {
	return pa%hw.BlockSize == 0 && n%hw.BlockSize == 0 && n <= ioSpan
}

// SendCancel aborts a SEND session (the SEND_CANCEL command): the
// transport session (keys, expanded schedule and GCM state) and
// the partial measurement are scrubbed and the context
// returns to the running state, so a failed migration resumes the source
// guest instead of leaving it stranded mid-send. Cancelling from the
// sent state is also allowed: in this retrofit the memory key never
// leaves the controller during a send, so until the owner destroys the
// context "sent" only records a finalized transport measurement — if the
// target rejects that measurement, the source rolls back and keeps
// running.
func (f *Firmware) SendCancel(h Handle) error {
	c, err := f.enter("send-cancel", h)
	if err != nil {
		return err
	}
	c.dropTransport()
	c.measure = Measurement{}
	c.seq = 0
	f.exit("send-cancel", c)
	return nil
}

// SendFinish closes the SEND session, scrubbing its transport keys, and
// returns the snapshot measurement (the paper's Mvm).
func (f *Firmware) SendFinish(h Handle) (Measurement, error) {
	c, err := f.enter("send-finish", h)
	if err != nil {
		return Measurement{}, err
	}
	c.dropTransport()
	f.exit("send-finish", c)
	return c.measure, nil
}

// ReceiveStart opens a RECEIVE session: it creates a context with a fresh
// Kvek and unwraps the transport keys using the ECDH agreement with the
// origin's public key and nonce.
func (f *Firmware) ReceiveStart(w WrappedKeys, originPub *ecdh.PublicKey, nonce []byte) (Handle, error) {
	return f.receiveStart("receive-start", w, originPub, nonce, f.newContext)
}

// ReceiveHelperStart opens a RECEIVE session on a helper context that
// shares an existing guest's Kvek — the r-dom of Fidelius's I/O path.
// The helper is launched only once the keys have unwrapped.
func (f *Firmware) ReceiveHelperStart(base Handle, w WrappedKeys, originPub *ecdh.PublicKey, nonce []byte) (Handle, error) {
	b, err := f.enter("receive-helper-start", base)
	if err != nil {
		return 0, err
	}
	return f.receiveStart("receive-helper-start", w, originPub, nonce, func() (*Context, error) { return f.helper(b) })
}

// receiveStart is the body RECEIVE_START and RECEIVE_HELPER_START share:
// guard, unwrap the transport keys, then make the context and open its
// session. The guard comes first, so a refused caller learns nothing of
// whether its wrapped keys open.
func (f *Firmware) receiveStart(name string, w WrappedKeys, originPub *ecdh.PublicKey, nonce []byte, newCtx func() (*Context, error)) (Handle, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	if !f.initialized {
		return 0, ErrNotInitialized
	}
	tk, err := openWrappedKeys(f.id, originPub, nonce, w)
	if err != nil {
		return 0, err
	}
	c, err := newCtx()
	if err != nil {
		return 0, err
	}
	c.setTransport(tk)
	f.exit(name, c)
	return c.handle, nil
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
// reuses it. They are written over pkts, or over a fresh slice when its
// capacity is short (nil asks for one), so a caller that hands back the
// previous result reuses it. Sequence numbers are pre-assigned by slice
// index and the measurement chain folded serially afterwards, so one
// N-page call yields the same packets and measurement as N one-page calls
// in the same order.
func (f *Firmware) SendUpdatePages(h Handle, pfns []hw.PFN, dst []byte, pkts []Packet) ([]Packet, error) {
	c, err := f.enter("send-update", h)
	if err != nil {
		return nil, err
	}
	if len(dst) != len(pfns)*hw.PageSize {
		return nil, fmt.Errorf("%w: %d bytes for %d pages", ErrBufferSize, len(dst), len(pfns))
	}
	base := c.seq
	if cap(pkts) < len(pfns) {
		pkts = make([]Packet, len(pfns))
	}
	pkts = pkts[:len(pfns)]
	if err := f.pool.ForEach(len(pfns), func(i int) error {
		page := dst[i*hw.PageSize : (i+1)*hw.PageSize : (i+1)*hw.PageSize]
		if err := f.ctl.Mem.ReadRaw(pfns[i].Addr(), page); err != nil {
			return err
		}
		c.cipher.DecryptLine(pfns[i].Addr(), page)
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
// N-page call matches N one-page calls. A one-packet call, the live
// migration target's, runs inline without the pool. A batch refused by
// its range, sequence, tag or size check commits nothing, charges nothing
// and leaves the sequence and measurement untouched, so the sender can
// retry with the genuine packets.
func (f *Firmware) ReceiveUpdatePages(h Handle, pfns []hw.PFN, pkts []Packet) error {
	c, err := f.enter("receive-update", h)
	if err != nil {
		return err
	}
	if len(pfns) != len(pkts) {
		return fmt.Errorf("sev: receive_update_pages: %d pfns, %d packets", len(pfns), len(pkts))
	}
	for _, pfn := range pfns {
		if err := f.ctl.Mem.Check(pfn.Addr(), hw.PageSize); err != nil {
			return err
		}
	}
	switch len(pkts) {
	case 0:
		return nil
	case 1:
		return f.receiveOne(c, h, pfns[0], pkts[0])
	}
	return f.receivePages(c, h, pfns, pkts)
}

// receiveOne is ReceiveUpdatePages for one packet, inline.
func (f *Firmware) receiveOne(c *Context, h Handle, pfn hw.PFN, pkt Packet) error {
	page := stagingPages.Get().(*[hw.PageSize]byte)
	defer stagingPages.Put(page)
	if err := f.openPage(c, c.seq, pfn, pkt, page); err != nil {
		return err
	}
	c.seq++
	return f.commitPage(c, h, pfn, pkt, page)
}

// receivePages is ReceiveUpdatePages for more than one packet: the pages
// open across the worker pool, then commit in slice order.
func (f *Firmware) receivePages(c *Context, h Handle, pfns []hw.PFN, pkts []Packet) error {
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
		pages[i] = stagingPages.Get().(*[hw.PageSize]byte)
		return f.openPage(c, base+uint64(i), pfns[i], pkts[i], pages[i])
	}); err != nil {
		return err
	}
	c.seq = base + uint64(len(pfns))
	for i := range pfns {
		if err := f.commitPage(c, h, pfns[i], pkts[i], pages[i]); err != nil {
			return err
		}
	}
	return nil
}

// openPage checks pkt's sequence number and tag, decrypts it into page
// and re-encrypts that under the context's Kvek for pfn.
func (f *Firmware) openPage(c *Context, seq uint64, pfn hw.PFN, pkt Packet, page *[hw.PageSize]byte) error {
	if pkt.Seq != seq {
		return fmt.Errorf("%w: got %d, want %d", ErrBadSequence, pkt.Seq, seq)
	}
	plain, err := f.openGuarded(c, pkt, stagingBuf(page, len(pkt.Data)))
	if err != nil {
		return err
	}
	if len(plain) != hw.PageSize {
		return fmt.Errorf("sev: receive_update packet is %d bytes, want a page", len(plain))
	}
	c.cipher.EncryptLine(pfn.Addr(), plain)
	return nil
}

// commitPage folds an opened packet into the measurement, charges it and
// writes its page to DRAM.
func (f *Firmware) commitPage(c *Context, h Handle, pfn hw.PFN, pkt Packet, page *[hw.PageSize]byte) error {
	c.measure = measureChain(c.measure, pkt.Tag)
	f.charge(cycles.SEVCommand + cycles.PageCopy + hw.PageSize/hw.BlockSize*cycles.AESBlockSEV)
	f.command("receive-update", h)
	return f.ctl.FirmwareWrite(pfn.Addr(), page[:])
}

// ReceiveFinish verifies the accumulated measurement against the
// sender's Mvm and makes the context runnable, scrubbing the transport
// keys. A refused measurement leaves the session open.
func (f *Firmware) ReceiveFinish(h Handle, expect Measurement) error {
	c, err := f.enter("receive-finish", h)
	if err != nil {
		return err
	}
	if c.measure != expect {
		if f.auditing() {
			f.audit("measurement-mismatch", c.asid,
				fmt.Sprintf("receive_finish on handle %d: migrated image does not match sender's Mvm", h))
		}
		return ErrBadMeasurement
	}
	c.dropTransport()
	f.exit("receive-finish", c)
	return nil
}
