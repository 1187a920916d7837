// Package fidelius is a full-system reproduction of "Comprehensive VM
// Protection against Untrusted Hypervisor through Retrofitted AMD Memory
// Encryption" (Wu et al., HPCA 2018): the Fidelius software extension to
// AMD SEV, together with every substrate it needs — a simulated machine
// with an inline AES memory-encryption engine, SEV firmware, and a
// Xen-like hypervisor with para-virtualized block I/O.
//
// The package is a facade over the internal packages. A typical protected
// VM session:
//
//	plat, _ := fidelius.NewPlatform(fidelius.Config{Protected: true})
//	owner, _ := fidelius.NewOwner()
//	bundle, kblk, _ := fidelius.PrepareGuest(owner, plat.PlatformKey(), kernel, diskImage)
//	vm, _ := plat.LaunchVM("my-vm", 64, bundle)
//	plat.StartVCPU(vm, func(g *fidelius.GuestEnv) error { ... })
//	err := plat.Run(vm)
//	plat.Shutdown(vm)
//
// The guest function runs against GuestEnv: memory access through the
// two-dimensional SEV translation, hypercalls, and the protected I/O
// front-ends. See the examples directory for complete programs.
package fidelius

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"fmt"
	"io"

	"fidelius/internal/core"
	"fidelius/internal/disk"
	"fidelius/internal/migrate"
	"fidelius/internal/serve"
	"fidelius/internal/sev"
	"fidelius/internal/telemetry"
	"fidelius/internal/xen"
)

// Re-exported core types. These aliases are the public names of the
// system's working parts.
type (
	// Platform is a booted machine: hardware, hypervisor and (when
	// protected) the Fidelius trusted context.
	Platform struct {
		// X is the hypervisor; it is untrusted in the threat model but
		// fully scriptable here (that is the point of the reproduction).
		X *xen.Xen
		// F is the Fidelius context; nil on unprotected platforms.
		F *core.Fidelius
	}

	// Domain is a guest VM.
	Domain = xen.Domain

	// GuestEnv is the world as seen from inside a guest vCPU.
	GuestEnv = xen.GuestEnv

	// GuestFunc is a guest kernel.
	GuestFunc = xen.GuestFunc

	// GuestBundle is the owner-prepared encrypted kernel + disk images.
	GuestBundle = core.GuestBundle

	// MigrationBundle is an encrypted VM snapshot in transit.
	MigrationBundle = core.MigrationBundle

	// Owner is the guest owner's offline trusted environment.
	Owner = sev.Owner

	// Disk is a virtual disk backing a PV block device.
	Disk = disk.Disk

	// BlockBackend is the driver-domain half of a PV block device.
	BlockBackend = xen.BlockBackend

	// BlockFrontend is the baseline (unprotected) guest block driver.
	BlockFrontend = xen.BlockFrontend

	// AESNIFront is the AES-NI protected guest block driver.
	AESNIFront = core.AESNIFront

	// SEVFront is the SEV-API protected guest block driver.
	SEVFront = core.SEVFront

	// Violation is one policy violation recorded by Fidelius.
	Violation = core.Violation

	// Quote is a signed attestation statement.
	Quote = sev.Quote

	// GEKImage is a portable encrypted kernel image (Section 8
	// customized-keys extension).
	GEKImage = sev.GEKImage

	// GEK is a customized guest encryption key.
	GEK = sev.GEK

	// GEKBundle binds a portable image to one platform.
	GEKBundle = core.GEKBundle

	// MigrateConn is one endpoint of a live-migration channel.
	MigrateConn = migrate.Conn

	// MigrateConfig tunes the live pre-copy engine (rounds, convergence
	// threshold, retry budget, stop-and-copy baseline mode).
	MigrateConfig = migrate.Config

	// MigrateStats is the engine's account of one migration: rounds,
	// pages, re-dirtied traffic, retries, bytes on wire and downtime.
	MigrateStats = migrate.Stats

	// MigrateLink wraps an endpoint with a bandwidth/latency cost model.
	MigrateLink = migrate.Link

	// MigrateFrame is one protocol frame on a migration channel.
	MigrateFrame = migrate.Frame

	// MigrateFaulty injects drops, duplicates and corruption into a
	// migration channel, for exercising the retry protocol.
	MigrateFaulty = migrate.Faulty
)

// MigrateFramePage identifies a page-carrying migration frame.
const MigrateFramePage = migrate.FramePage

// cacheLines is every platform's CPU cache size in 64-byte lines.
const cacheLines = 1024

// Config sizes and configures a platform.
type Config struct {
	// MemPages is physical memory in 4 KiB pages (default 4096).
	MemPages int
	// Protected enables Fidelius (late launch at boot).
	Protected bool
}

// NewPlatform boots a machine, the hypervisor and — if requested —
// Fidelius on top.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.MemPages == 0 {
		cfg.MemPages = 4096
	}
	m, err := xen.NewMachine(xen.Config{MemPages: cfg.MemPages, CacheLines: cacheLines})
	if err != nil {
		return nil, err
	}
	x, err := xen.New(m)
	if err != nil {
		return nil, err
	}
	p := &Platform{X: x}
	if cfg.Protected {
		if p.F, err = core.Enable(x); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// PlatformKey returns the SEV platform public key guest owners encrypt
// their images for.
func (p *Platform) PlatformKey() *ecdh.PublicKey {
	pub, err := p.X.M.FW.PublicKey()
	if err != nil {
		panic("fidelius: platform firmware not initialised: " + err.Error())
	}
	return pub
}

// NewOwner creates a guest-owner identity.
func NewOwner() (*Owner, error) { return sev.NewOwner() }

// PrepareGuest runs the owner's offline preparation: the encrypted kernel
// image (with Kblk embedded), the wrapped transport keys, and the
// Kblk-encrypted disk image.
func PrepareGuest(owner *Owner, platformKey *ecdh.PublicKey, kernel, diskImage []byte) (*GuestBundle, [32]byte, error) {
	return core.PrepareGuest(owner, platformKey, kernel, diskImage)
}

// LaunchVM boots a protected VM from an owner bundle (requires a
// protected platform). For unprotected guests use CreateVM.
func (p *Platform) LaunchVM(name string, memPages int, b *GuestBundle) (*Domain, error) {
	if p.F == nil {
		return nil, fmt.Errorf("fidelius: LaunchVM requires a protected platform")
	}
	return p.F.LaunchVM(name, memPages, b)
}

// CreateVM builds a guest without Fidelius's boot protocol. With sev
// true the guest gets its own memory encryption key (hypervisor-managed,
// as on stock SEV).
func (p *Platform) CreateVM(name string, memPages int, sevEnabled bool) (*Domain, error) {
	return p.X.CreateDomain(xen.DomainConfig{Name: name, MemPages: memPages, SEV: sevEnabled})
}

// AttachDisk wires a disk to a VM through the PV block protocol. On a
// protected platform it also declares the shared pages and loads the
// bundle's encrypted disk image (pass nil to skip).
func (p *Platform) AttachDisk(d *Domain, dk *Disk, dataPages int, port uint32, b *GuestBundle) (*BlockBackend, error) {
	var backend *BlockBackend
	var err error
	if p.F != nil {
		backend, err = p.F.AttachProtectedDisk(d, dk, dataPages, port, b)
	} else {
		backend, err = p.X.AttachBlockDevice(d, dk, dataPages, port)
		if err == nil && b != nil {
			for lba := 0; lba*SectorSize < len(b.DiskImage); lba++ {
				if werr := dk.WriteSector(uint64(lba), b.DiskImage[lba*SectorSize:]); werr != nil {
					return nil, werr
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return backend, p.X.WriteStartInfo(d)
}

// SetupIOSession establishes the SEV-API I/O encryption contexts (s-dom
// and r-dom) for a protected VM, enabling SEVFront.
func (p *Platform) SetupIOSession(d *Domain) error {
	if p.F == nil {
		return fmt.Errorf("fidelius: SEV I/O sessions require a protected platform")
	}
	return p.F.SetupIOSession(d)
}

// StartVCPU launches a guest kernel on a VM's vCPU.
func (p *Platform) StartVCPU(d *Domain, fn GuestFunc) { p.X.StartVCPU(d, fn) }

// Run schedules the VM until its guest function returns.
func (p *Platform) Run(d *Domain) error { return p.X.Run(d) }

// Schedule round-robins several started VMs until all their guest
// functions return, returning per-domain errors.
func (p *Platform) Schedule(doms []*Domain) map[xen.DomID]error { return p.X.Schedule(doms) }

// Shutdown terminates a VM with full key and metadata scrubbing.
func (p *Platform) Shutdown(d *Domain) error {
	if p.F != nil {
		if _, ok := p.F.VM(d); ok {
			return p.F.ShutdownVM(d)
		}
	}
	return p.X.DestroyDomain(d)
}

// MigrateOut snapshots a stopped protected VM for the target platform.
func (p *Platform) MigrateOut(d *Domain, target *Platform) (*MigrationBundle, error) {
	if p.F == nil {
		return nil, fmt.Errorf("fidelius: migration requires a protected platform")
	}
	return p.F.MigrateOut(d, target.PlatformKey())
}

// MigrateIn materialises a migrated VM on this platform.
func (p *Platform) MigrateIn(bundle *MigrationBundle, origin *Platform) (*Domain, error) {
	if p.F == nil {
		return nil, fmt.Errorf("fidelius: migration requires a protected platform")
	}
	return p.F.MigrateIn(bundle, origin.PlatformKey())
}

// NewMigrationPipe returns two connected in-memory migration endpoints
// with the given per-direction frame buffer.
func NewMigrationPipe(buf int) (MigrateConn, MigrateConn) { return migrate.Pipe(buf) }

// MigrateOutLive streams a running protected VM to the platform behind
// conn using iterative pre-copy: the vCPU keeps executing while dirty
// pages are tracked in the NPT and re-sent round by round; only the
// final round stops it. On failure the source VM is left running.
func (p *Platform) MigrateOutLive(d *Domain, target *Platform, conn MigrateConn, cfg MigrateConfig) (*MigrateStats, error) {
	if p.F == nil {
		return nil, fmt.Errorf("fidelius: migration requires a protected platform")
	}
	return p.F.MigrateOutLive(d, target.PlatformKey(), conn, cfg)
}

// MigrateInLive receives a live migration arriving on conn and returns
// the activated VM.
func (p *Platform) MigrateInLive(conn MigrateConn, origin *Platform) (*Domain, error) {
	if p.F == nil {
		return nil, fmt.Errorf("fidelius: migration requires a protected platform")
	}
	return p.F.MigrateInLive(conn, origin.PlatformKey())
}

// LiveMigrate moves a running protected VM from one platform to another
// over an in-memory link with the default bandwidth/latency cost model,
// running both protocol ends and returning the activated target domain
// plus the engine's statistics. The two ends run at once, so source and
// target must be distinct platforms.
func LiveMigrate(source *Platform, d *Domain, target *Platform, cfg MigrateConfig) (*Domain, *MigrateStats, error) {
	if source.F == nil || target.F == nil {
		return nil, nil, fmt.Errorf("fidelius: live migration requires protected platforms")
	}
	if source == target {
		// Both ends would enter Fidelius concurrently on one CPU, whose
		// trusted-context flag one end's exit could clear under the other.
		return nil, nil, fmt.Errorf("fidelius: live migration needs distinct source and target platforms")
	}
	a, b := migrate.Pipe(2 * migrate.Window) // the window's minimum (migrate.Conn)
	sc := &migrate.Link{Conn: a, Counter: source.X.M.Ctl.Cycles,
		CyclesPerByte: migrate.DefaultCyclesPerByte, LatencyCycles: migrate.DefaultLatencyCycles}
	tc := &migrate.Link{Conn: b, Counter: target.X.M.Ctl.Cycles,
		CyclesPerByte: migrate.DefaultCyclesPerByte, LatencyCycles: migrate.DefaultLatencyCycles}
	type inRes struct {
		d   *Domain
		err error
	}
	done := make(chan inRes, 1)
	go func() {
		vm, err := target.MigrateInLive(tc, source)
		done <- inRes{vm, err}
	}()
	stats, err := source.MigrateOutLive(d, target, sc, cfg)
	if err != nil {
		a.Close() // a target still waiting for its first frame would wait forever
	}
	r := <-done
	if err != nil {
		return nil, stats, err
	}
	if r.err != nil {
		return nil, stats, r.err
	}
	return r.d, stats, nil
}

// Violations returns the policy violations Fidelius has logged.
func (p *Platform) Violations() []Violation {
	if p.F == nil {
		return nil
	}
	return p.F.ViolationLog()
}

// DumpViolations writes the Fidelius audit log in a human-readable form.
func (p *Platform) DumpViolations(w io.Writer) {
	vs := p.Violations()
	if len(vs) == 0 {
		fmt.Fprintln(w, "no policy violations recorded")
		return
	}
	fmt.Fprintf(w, "%d policy violation(s):\n", len(vs))
	for i, v := range vs {
		fmt.Fprintf(w, "  %3d  [%s] %s\n", i+1, v.Kind, v.Detail)
	}
}

// Telemetry returns the platform's telemetry hub: the unified metrics
// registry plus the event tracer every layer of the machine reports into.
func (p *Platform) Telemetry() *telemetry.Hub { return p.X.M.Ctl.Telem }

// Metrics snapshots every counter, gauge and histogram on the platform.
func (p *Platform) Metrics() telemetry.Snapshot { return p.Telemetry().Reg.Snapshot() }

// StartTrace begins capturing timeline events into a bounded ring buffer
// (capacity in events; 0 selects the default). Tracing costs one event
// record per instrumented operation; when no trace is active the
// instrumentation reduces to a single atomic load.
func (p *Platform) StartTrace(capacity int) { p.Telemetry().StartTrace(capacity) }

// WriteTrace renders the captured events as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto. Processes are VMs (pid =
// domain ID), threads are ASIDs. Causal spans (scheduler sessions,
// quanta, SEV firmware commands, migration rounds, pool batches) are
// exported alongside, with parent→child flow arrows.
func (p *Platform) WriteTrace(w io.Writer) error { return p.Telemetry().WriteChromeTrace(w) }

// SLOObjective is one declarative latency objective over a platform
// histogram (see telemetry.Objective).
type SLOObjective = telemetry.Objective

// SLOEvaluation is one objective's pass/fail verdict with its measured
// quantile and burn rate.
type SLOEvaluation = telemetry.Evaluation

// DefaultSLOs returns the platform's stock latency objectives (VMEXIT
// round-trip p50/p99).
func DefaultSLOs() []SLOObjective { return telemetry.DefaultObjectives() }

// EvaluateSLOs checks the objectives against the live registry, emitting
// burn-rate alert events for failures; render the result with
// telemetry.WriteSLOTable.
func (p *Platform) EvaluateSLOs(objs []SLOObjective) []SLOEvaluation {
	return p.Telemetry().EvaluateSLOs(objs)
}

// AuditRecord is one entry of the hash-chained security audit ledger.
type AuditRecord = telemetry.Record

// StartAudit arms the platform's append-only, hash-chained security
// audit ledger: gatekeeper denials, integrity-tag failures, NPT remap and
// ASID-reuse detections, SEV state transitions and attestation quotes all
// append records. When no ledger is armed the instrumentation reduces to
// a single atomic load.
func (p *Platform) StartAudit() { p.Telemetry().StartLedger() }

// AuditRecords returns a copy of the ledger's chain, oldest first.
func (p *Platform) AuditRecords() []AuditRecord { return p.Telemetry().Ledger().Records() }

// AuditHead returns the ledger's live head hash. A verifier that holds
// the head out of band detects truncation of an exported copy, not just
// in-place tampering.
func (p *Platform) AuditHead() [32]byte { return p.Telemetry().Ledger().Head() }

// VerifyAuditChain checks an exported ledger copy against a head hash;
// any mutation, reorder, insertion, deletion or truncation fails.
func VerifyAuditChain(recs []AuditRecord, head [32]byte) error {
	return telemetry.VerifyChain(recs, head)
}

// NewDisk creates a virtual disk with the given number of 512-byte
// sectors.
func NewDisk(sectors int) *Disk { return disk.New(sectors) }

// NewBlockFrontend opens the baseline PV block front-end inside a guest.
func NewBlockFrontend(g *GuestEnv) (*BlockFrontend, error) { return xen.NewBlockFrontend(g) }

// NewAESNIFront opens the AES-NI protected front-end with the guest's
// block key.
func NewAESNIFront(g *GuestEnv, f *BlockFrontend, kblk [32]byte) (*AESNIFront, error) {
	return core.NewAESNIFront(g, f, kblk)
}

// NewSEVFront opens the SEV-API protected front-end (requires
// SetupIOSession on the domain first).
func NewSEVFront(g *GuestEnv, f *BlockFrontend) *SEVFront { return core.NewSEVFront(g, f) }

// ServeConfig sizes a multi-tenant serving scenario (see internal/serve).
type ServeConfig = serve.Config

// ServeService is one multi-tenant KV serving scenario: per-tenant
// protected VMs running the kv store behind a sector-framed request ring,
// with open-loop load and attestation-gated admission.
type ServeService = serve.Service

// ServeTenantReport is one tenant's serving scorecard.
type ServeTenantReport = serve.TenantReport

// NewServeService builds the serving scenario on a protected platform:
// tenant VMs launched, disks attached, rings mapped, and every client
// session admitted (or refused) through the attestation handshake.
func (p *Platform) NewServeService(cfg ServeConfig) (*ServeService, error) {
	if p.F == nil {
		return nil, fmt.Errorf("fidelius: serving requires a protected platform")
	}
	return serve.New(p.F, cfg)
}

// DefaultServeSLOs returns the stock serving-latency objectives
// (arrival-to-response p50/p99 over the fleet serve.latency histogram).
func DefaultServeSLOs() []SLOObjective { return telemetry.DefaultServeObjectives() }

// WriteServeReportTable renders per-tenant serving scorecards.
func WriteServeReportTable(w io.Writer, reports []ServeTenantReport) error {
	return serve.WriteReportTable(w, reports)
}

// Useful re-exported constants.
const (
	// PageSize is the platform page size.
	PageSize = 4096
	// SectorSize is the disk sector size.
	SectorSize = disk.SectorSize
	// KblkOffset is where PrepareGuest embeds Kblk in the kernel image.
	KblkOffset = core.KblkOffset
	// HCVoid is the no-op hypercall number.
	HCVoid = xen.HCVoid
	// HCPreSharingOp declares a sharing to Fidelius before granting.
	HCPreSharingOp = xen.HCPreSharingOp
	// HCGrantTableOp manipulates grant tables.
	HCGrantTableOp = xen.HCGrantTableOp
)

// Attest produces a signed platform quote bound to the verifier's nonce,
// covering the hypervisor-code measurement and the integrity-tree root.
func (p *Platform) Attest(nonce []byte) (*Quote, error) {
	if p.F == nil {
		return nil, fmt.Errorf("fidelius: attestation requires a protected platform")
	}
	return p.F.Attest(nonce)
}

// AttestVM produces a signed quote bound to one protected VM: the
// platform measurements plus the VM's launch measurement from its
// firmware context. Clients verify it against the measurement of the
// owner image before sending the VM any key material.
func (p *Platform) AttestVM(d *Domain, nonce []byte) (*Quote, error) {
	if p.F == nil {
		return nil, fmt.Errorf("fidelius: attestation requires a protected platform")
	}
	return p.F.AttestVM(d, nonce)
}

// AttestationKey returns the platform's attestation public key for
// verifiers.
func (p *Platform) AttestationKey() (*ecdsa.PublicKey, error) {
	return p.X.M.FW.AttestationKey()
}

// VerifyQuote checks a quote against a platform attestation key.
func VerifyQuote(pub *ecdsa.PublicKey, q *Quote, nonce []byte) error {
	return sev.VerifyQuote(pub, q, nonce)
}

// EnableIntegrity puts a protected VM's memory under the Bonsai-Merkle
// integrity engine (the Section 8 extension): physical tampering is then
// detected rather than merely scrambled.
func (p *Platform) EnableIntegrity(d *Domain) error {
	if p.F == nil {
		return fmt.Errorf("fidelius: integrity requires a protected platform")
	}
	return p.F.EnableIntegrity(d)
}

// PrepareGEKGuest builds a portable encrypted kernel image under a
// customized key (the Section 8 extension); BindGEKGuest authorises one
// platform at deployment time; LaunchVMFromGEK boots it.
func PrepareGEKGuest(owner *Owner, kernel []byte) (*GEKImage, GEK, error) {
	return core.PrepareGEKGuest(owner, kernel)
}

// BindGEKGuest wraps a portable image's key for one platform.
func BindGEKGuest(owner *Owner, platformKey *ecdh.PublicKey, img *GEKImage, gek GEK) (*GEKBundle, error) {
	return core.BindGEKGuest(owner, platformKey, img, gek)
}

// LaunchVMFromGEK boots a protected VM from a portable GEK image.
func (p *Platform) LaunchVMFromGEK(name string, memPages int, b *GEKBundle) (*Domain, error) {
	if p.F == nil {
		return nil, fmt.Errorf("fidelius: LaunchVMFromGEK requires a protected platform")
	}
	return p.F.LaunchVMFromGEK(name, memPages, b)
}

// KernelBase returns the guest frame where a protected VM's kernel was
// loaded.
func (p *Platform) KernelBase(d *Domain, b *GuestBundle) uint64 {
	if p.F == nil {
		return 0
	}
	return p.F.KernelBase(d, b)
}
