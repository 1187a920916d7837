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

	// Metrics is the platform's telemetry snapshot after the attack
	// (filled by RunAllTo; zero for directly constructed outcomes).
	Metrics telemetry.Snapshot

	// Audit is the security audit ledger accumulated during the attack,
	// with its head hash and verification verdict (filled by RunAllTo):
	// the attack's outcome proven from the tamper-evident record rather
	// than from in-memory state the hypervisor could scrub.
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

// Attack is one adversarial procedure.
type Attack interface {
	Name() string
	// Description explains the attack and which paper section covers it.
	Description() string
	// Run executes the attack against the platform and reports whether
	// the attacker's goal was achieved.
	Run(p *Platform) Outcome
}

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

// Setup boots a platform in the given configuration: machine, hypervisor,
// optionally Fidelius, a victim VM that plants the secret in memory and on
// disk (via the configuration's I/O path), and a conspirator VM.
func Setup(protected bool) (*Platform, error) {
	return boot(protected, launchStock)
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

// All returns the full attack suite in a stable order.
func All() []Attack {
	return []Attack{
		ColdBoot{},
		DMASnoop{},
		HypervisorDirectRead{},
		InterVMRemap{},
		NPTReplay{},
		GrantForgery{},
		KeyAbuse{},
		RegisterTheft{},
		VMCBControlTamper{},
		DisableWP{},
		CR3Pivot{},
		HiddenGadget{},
		IagoCPUID{},
		IODataTheft{},
		CodePatch{},
		Rowhammer{},
		HypercallFuzz{},
		LedgerTamper{},
	}
}

// RunAll executes every attack against a fresh platform per attack (some
// attacks perturb global state).
func RunAll(protected bool) ([]Outcome, error) {
	return RunAllTo(protected, "")
}

// RunAllTo is RunAll with observability: each outcome carries the
// platform's telemetry snapshot, and when traceDir is non-empty a Chrome
// trace_event timeline of each attack is written to
// <traceDir>/<attack-name>.<config>.json.
func RunAllTo(protected bool, traceDir string) ([]Outcome, error) {
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	var out []Outcome
	for _, a := range All() {
		p, err := Setup(protected)
		if err != nil {
			return nil, fmt.Errorf("setting up for %s: %w", a.Name(), err)
		}
		hub := p.X.M.Ctl.Telem
		if traceDir != "" {
			hub.StartTrace(0)
		}
		led := hub.StartLedger()
		o := a.Run(p)
		o.Metrics = hub.Reg.Snapshot()
		o.Audit = led.Records()
		o.AuditHead = led.Head()
		o.AuditOK = telemetry.VerifyChain(o.Audit, o.AuditHead) == nil
		if traceDir != "" {
			name := filepath.Join(traceDir, fmt.Sprintf("%s.%s.json", a.Name(), o.Config))
			f, err := os.Create(name)
			if err != nil {
				return nil, err
			}
			if err := hub.WriteChromeTrace(f); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		out = append(out, o)
	}
	return out, nil
}
