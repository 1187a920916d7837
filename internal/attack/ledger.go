package attack

import (
	"fmt"

	"fidelius/internal/telemetry"
)

// ledgerTamper is the forensic-erasure adversary: after one of its
// operations is denied and recorded, the hypervisor tries to launder the
// audit trail — first by rewriting the incriminating record (with and
// without recomputing its hash), then by truncating the trail as if the
// denial never happened. SEVered and "Insecure Until Proven Updated"
// both rely on the victim having no tamper-evident record of
// hypervisor-side actions; the hash-chained ledger is the counterpart,
// and unlike the other attacks its defence is configuration-independent
// — the chain is pure hash arithmetic, so the attack is blocked on the
// plain-Xen baseline too.
func ledgerTamper(p *Platform) (bool, string) {
	hub := p.X.M.Ctl.Telem
	led := hub.Ledger()
	if led == nil {
		led = hub.StartLedger()
	}

	// Step 1: get an operation denied and recorded. The hypervisor mints
	// a fresh firmware context and tries to steal the victim's ASID
	// binding (the key-sharing primitive). On the baseline the firmware
	// itself refuses the live binding (asid-reuse record); under Fidelius
	// the authorization guard refuses the command outright
	// (sev-unauthorized record). Either way the ledger must have grown.
	before := led.Len()
	fw := p.X.M.FW
	if h, err := fw.LaunchStart(0); err == nil {
		_ = fw.Activate(h, p.Victim.ASID)
	}
	recs := led.Records()
	head := led.Head()
	if len(recs) <= before {
		return true, "denied operation left no forensic record"
	}
	if err := telemetry.VerifyChain(recs, head); err != nil {
		return true, fmt.Sprintf("honest ledger fails its own verification: %v", err)
	}
	last := len(recs) - 1

	// Step 2a: naive rewrite of the incriminating record.
	forged := append([]telemetry.Record{}, recs...)
	forged[last].Detail = "benign: routine maintenance"
	if telemetry.VerifyChain(forged, head) == nil {
		return true, "rewritten record passed verification"
	}

	// Step 2b: smarter rewrite — recompute the edited record's hash so it
	// is internally consistent; only the externally held head can expose
	// it.
	rehashed := append([]telemetry.Record{}, recs...)
	rehashed[last].Detail = "benign: routine maintenance"
	rehashed[last].Hash = telemetry.HashRecord(rehashed[last])
	if telemetry.VerifyChain(rehashed, head) == nil {
		return true, "rehashed forgery passed verification against the live head"
	}

	// Step 3: truncation — present the prefix from before the denial.
	if telemetry.VerifyChain(recs[:last], head) == nil {
		return true, "truncated ledger passed verification"
	}

	return false, fmt.Sprintf("rewrite, rehash and truncation all detected across %d records", len(recs))
}
