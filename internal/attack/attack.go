// Package attack implements the adversary of the paper's threat model: an
// untrusted hypervisor (and driver domain) plus physical attacks. Every
// attack runs against two platform configurations — plain Xen (the
// baseline, where it is expected to succeed) and Fidelius (where it must
// be blocked) — reproducing the security analysis of Section 6.
package attack

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"fidelius/internal/core"
	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/sev"
	"fidelius/internal/telemetry"
	"fidelius/internal/xen"
)

// Outcome is the result of one attack run.
type Outcome struct {
	Name      string
	Config    string // "xen" or "fidelius"
	Succeeded bool   // the attacker achieved the goal
	Detail    string

	// Metrics is the platform's telemetry snapshot after the attack.
	Metrics telemetry.Snapshot

	// Audit is the security audit ledger accumulated during the attack,
	// with its head hash and verification verdict: the attack's outcome
	// proven from the tamper-evident record rather than from in-memory
	// state the hypervisor could scrub.
	Audit     []telemetry.Record
	AuditHead [32]byte
	AuditOK   bool
}

func (o Outcome) String() string {
	verdict := "BLOCKED"
	if o.Succeeded {
		verdict = "SUCCEEDED"
	}
	return fmt.Sprintf("%-28s %-9s %-9s %s", o.Name, o.Config, verdict, o.Detail)
}

// Attack is one row of the suite: the attack's name, what it does and
// which paper section covers it, and the procedure that runs it against
// a booted platform. The procedure reports only whether the attacker
// reached its goal and a one-line detail; RunAll labels the outcome.
type Attack struct {
	Name        string
	Description string
	run         func(p *Platform) (succeeded bool, detail string)
}

// suite is every attack, in the order the matrix prints them.
var suite = []Attack{
	{"cold-boot", "physically dump DRAM and search for guest secrets (§6.1)", coldBoot},
	{"dma-snoop", "device-initiated DMA read of guest memory (§2.2)", dmaSnoop},
	{"direct-map-read", "hypervisor reads guest memory through its own mapping; cache hits leak plaintext (§6.2)", directMapRead},
	{"inter-vm-remap", "map victim memory into a conspirator VM's NPT and read via cache hit (§6.2)", interVMRemap},
	{"npt-replay", "remap a guest GPA to a different (stale) frame of the same guest (§2.2)", nptReplay},
	{"grant-forgery", "flip a read-only grant's permission bit in the grant table (§2.2)", grantForgery},
	{"key-sharing-abuse", "DEACTIVATE the victim's handle and ACTIVATE it under the attacker's ASID (§2.2)", keySharingAbuse},
	{"register-theft", "read guest general-purpose registers at VMEXIT (§2.2)", registerTheft},
	{"vmcb-tamper", "rewrite VMCB control fields (NPT root) between exit and entry (§2.2)", vmcbTamper},
	{"disable-wp", "clear CR0.WP via the privileged stub, then rewrite protected structures (§6.2)", disableWP},
	{"cr3-pivot", "switch CR3 to an attacker page table mapping everything writable (§4.1.2)", cr3Pivot},
	{"hidden-gadget", "plant and execute an unsanctioned VMRUN after disabling NX (§4.1.2)", hiddenGadget},
	{"iago-cpuid", "return forged CPUID values to the guest (§6.2)", iagoCPUID},
	{"io-data-theft", "driver domain snoops the PV block path and the disk (§6.2)", ioDataTheft},
	{"code-patch", "remap a hypervisor code page writable and patch it (§5.3)", codePatch},
	{"rowhammer", "flip one DRAM bit in guest memory, aiming for a controlled plaintext change (§6.2)", rowhammer},
	{"hypercall-fuzz", "adversarial guest fuzzes the hypercall interface for leaks or corruption (§6.2)", hypercallFuzz},
	{"audit-ledger-tamper", "rewrite and truncate the security audit ledger to erase the record of a denied operation (forensic counterpart of SEVered's unrecorded remaps)", ledgerTamper},
}

// All returns the attack suite in its stable order.
func All() []Attack { return slices.Clone(suite) }

// Platform is a booted system with a victim VM holding a known secret (in
// memory and on disk) and a conspirator VM colluding with the hypervisor.
type Platform struct {
	X *xen.Xen
	F *core.Fidelius // nil in the baseline configuration

	Victim      *xen.Domain
	Conspirator *xen.Domain

	// Secret is planted by the victim at SecretGFN and written to disk
	// at SecretLBA.
	Secret    []byte
	SecretGFN uint64
	SecretLBA uint64

	Backend *xen.BlockBackend
	Disk    *disk.Disk
}

// Protected reports whether Fidelius is active.
func (p *Platform) Protected() bool { return p.F != nil }

// ConfigName labels the configuration.
func (p *Platform) ConfigName() string {
	if p.Protected() {
		return "fidelius"
	}
	return "xen"
}

// VictimFrame returns the host frame backing the victim's secret page.
func (p *Platform) VictimFrame() hw.PFN {
	pfn, _ := p.Victim.GPAFrame(p.SecretGFN)
	return pfn
}

const (
	secretGFN = 8
	secretLBA = 40
	memPages  = 64
	ioPort    = 1
)

// plantSecret is the victim workload: write the secret into private
// memory (and read it back, so the cache holds plaintext — the state the
// remapping attacks exploit) and store it on disk through the
// configuration's I/O path.
func plantSecret(p *Platform) xen.GuestFunc {
	return func(g *xen.GuestEnv) error {
		if err := g.Write(p.SecretGFN<<hw.PageShift, p.Secret); err != nil {
			return err
		}
		tmp := make([]byte, len(p.Secret))
		if err := g.Read(p.SecretGFN<<hw.PageShift, tmp); err != nil {
			return err
		}
		bf, err := xen.NewBlockFrontend(g)
		if err != nil {
			return err
		}
		if p.Protected() {
			front := core.NewSEVFront(g, bf)
			return front.WriteSectors(p.SecretLBA, p.Secret)
		}
		return bf.WriteSectors(p.SecretLBA, p.Secret)
	}
}

// launchStock places the victim and the conspirator: under Fidelius as
// attested launches with the victim's disk behind an SEV I/O session,
// under plain Xen as bare SEV domains with a plain block device.
func launchStock(p *Platform) error {
	x, f := p.X, p.F
	var err error
	if f == nil {
		if p.Victim, err = x.CreateDomain(xen.DomainConfig{Name: "victim", MemPages: memPages, SEV: true}); err != nil {
			return err
		}
		if p.Backend, err = x.AttachBlockDevice(p.Victim, p.Disk, 2, ioPort); err != nil {
			return err
		}
		p.Conspirator, err = x.CreateDomain(xen.DomainConfig{Name: "conspirator", MemPages: memPages, SEV: true})
		return err
	}
	owner, err := sev.NewOwner()
	if err != nil {
		return err
	}
	pub, err := x.M.FW.PublicKey()
	if err != nil {
		return err
	}
	bundle, _, err := core.PrepareGuest(owner, pub, nil, nil)
	if err != nil {
		return err
	}
	if p.Victim, err = f.LaunchVM("victim", memPages, bundle); err != nil {
		return err
	}
	if err := f.SetupIOSession(p.Victim); err != nil {
		return err
	}
	if p.Backend, err = f.AttachProtectedDisk(p.Victim, p.Disk, 2, ioPort, nil); err != nil {
		return err
	}
	bundle2, _, err := core.PrepareGuest(owner, pub, nil, nil)
	if err != nil {
		return err
	}
	p.Conspirator, err = f.LaunchVM("conspirator", memPages, bundle2)
	return err
}

// boot builds the machine, the hypervisor and, when protected, Fidelius;
// launch places the victim (with its disk) and the conspirator; then the
// victim's start-info page is written and its workload plants the secret.
func boot(protected bool, launch func(p *Platform) error) (*Platform, error) {
	m, err := xen.NewMachine(xen.Config{MemPages: 4096, CacheLines: 2048})
	if err != nil {
		return nil, err
	}
	x, err := xen.New(m)
	if err != nil {
		return nil, err
	}
	p := &Platform{
		X:         x,
		Secret:    bytes.Repeat([]byte("TOP-SECRET-DATA!"), 32), // 512 bytes
		SecretGFN: secretGFN,
		SecretLBA: secretLBA,
		Disk:      disk.New(256),
	}
	if protected {
		if p.F, err = core.Enable(x); err != nil {
			return nil, err
		}
	}
	if err := launch(p); err != nil {
		return nil, err
	}
	if err := x.WriteStartInfo(p.Victim); err != nil {
		return nil, err
	}
	p.Backend.SnoopEnabled = true

	x.StartVCPU(p.Victim, plantSecret(p))
	if err := x.Run(p.Victim); err != nil {
		return nil, fmt.Errorf("attack: victim workload: %w", err)
	}
	return p, nil
}

// RunAll runs every attack against the configuration, each on a freshly
// booted platform (some attacks perturb global state). Each outcome
// carries the attack's name, the configuration, the platform's telemetry
// snapshot and the audit ledger the attack left behind. When traceDir is
// non-empty, a Chrome trace_event timeline of each attack is written to
// <traceDir>/<attack-name>.<config>.json.
func RunAll(protected bool, traceDir string) ([]Outcome, error) {
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	out := make([]Outcome, 0, len(suite))
	for _, a := range suite {
		p, err := boot(protected, launchStock)
		if err != nil {
			return nil, fmt.Errorf("setting up for %s: %w", a.Name, err)
		}
		hub := p.X.M.Ctl.Telem
		if traceDir != "" {
			hub.StartTrace(0)
		}
		led := hub.StartLedger()
		o := Outcome{Name: a.Name, Config: p.ConfigName()}
		o.Succeeded, o.Detail = a.run(p)
		o.Metrics = hub.Reg.Snapshot()
		o.Audit = led.Records()
		o.AuditHead = led.Head()
		o.AuditOK = telemetry.VerifyChain(o.Audit, o.AuditHead) == nil
		if traceDir != "" {
			if err := writeTrace(hub, filepath.Join(traceDir, o.Name+"."+o.Config+".json")); err != nil {
				return nil, err
			}
		}
		out = append(out, o)
	}
	return out, nil
}

// writeTrace writes the hub's Chrome trace_event timeline to the named
// file.
func writeTrace(hub *telemetry.Hub, name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := hub.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
