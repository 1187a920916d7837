package core

import (
	"bytes"
	"regexp"
	"testing"
	"time"

	"fidelius/internal/migrate"
	"fidelius/internal/sev"
	"fidelius/internal/telemetry"
)

// sevStateEdges is every firmware context move the SEV API allows,
// written out by hand: the ledger's sev-state records may name no other.
var sevStateEdges = map[string]bool{
	"invalid -> launching": true, // LAUNCH_START
	"launching -> running": true, // LAUNCH_FINISH
	"invalid -> running":   true, // LAUNCH_HELPER
	"invalid -> receiving": true, // RECEIVE_START
	"running -> receiving": true, // RECEIVE_HELPER_START, on the helper it launched
	"receiving -> running": true, // RECEIVE_FINISH
	"running -> sending":   true, // SEND_START
	"sending -> sent":      true, // SEND_FINISH
	"sending -> running":   true, // SEND_CANCEL
	"sent -> running":      true, // SEND_CANCEL
}

var sevStateRecord = regexp.MustCompile(`^handle \d+: (\w+ -> \w+)$`)

// TestLedgerSEVStateEdges runs the platform's lifecycle operations with
// the audit ledger armed on both ends — a launch, an I/O session, a
// guest quote, a GEK launch, an offline migration, two aborted live
// migrations, a live migration and shutdown — and checks every sev-state
// record names an allowed edge and every allowed edge is recorded.
func TestLedgerSEVStateEdges(t *testing.T) {
	x1, f1 := newPlatform(t)
	_, f2 := newPlatform(t)
	led1 := f1.M.Ctl.Telem.StartLedger()
	led2 := f2.M.Ctl.Telem.StartLedger()
	pub1, _ := f1.M.FW.PublicKey()
	pub2, _ := f2.M.FW.PublicKey()

	b, _ := newBundle(t, f1, bytes.Repeat([]byte("LEDGER-KERNEL!!!"), 256), nil)
	d, err := f1.LaunchVM("ledger", 48, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.SetupIOSession(d); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.AttestVM(d, []byte("nonce")); err != nil {
		t.Fatal(err)
	}

	owner, err := sev.NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	img, gek, err := PrepareGEKGuest(owner, make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := BindGEKGuest(owner, pub1, img, gek)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := f1.LaunchVMFromGEK("ledger-gek", 32, gb)
	if err != nil {
		t.Fatal(err)
	}

	bundle, err := f1.MigrateOut(d, pub2)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := f2.MigrateIn(bundle, pub1)
	if err != nil {
		t.Fatal(err)
	}

	// Aborted live migrations cancel the send, mid-stream (a tampered
	// page) and after SEND_FINISH (a tampered measurement); the retry
	// completes.
	dl, _ := launchWorkload(t, f1)
	x1.StartVCPU(dl, recoverableGuest)
	for _, tamper := range []func(migrate.Conn) migrate.Conn{
		func(c migrate.Conn) migrate.Conn { return pageTamper{c} },
		func(c migrate.Conn) migrate.Conn { return mvmTamper{c} },
	} {
		a, b := migrate.Pipe(16)
		if _, serr, _, _ := liveMigrate(t, f1, dl, f2, tamper(a), b,
			migrate.Config{AckTimeout: 20 * time.Millisecond, MaxRetries: 2}); serr == nil {
			t.Fatal("tampered live migration succeeded")
		}
	}
	a2, b2 := migrate.Pipe(8)
	_, serr, dl2, rerr := liveMigrate(t, f1, dl, f2, a2, b2, migrate.Config{AckTimeout: time.Second})
	if serr != nil || rerr != nil {
		t.Fatalf("live migration failed: send=%v recv=%v", serr, rerr)
	}

	if err := f1.ShutdownVM(d); err != nil {
		t.Fatal(err)
	}
	if err := f1.ShutdownVM(dg); err != nil {
		t.Fatal(err)
	}
	if err := f2.ShutdownVM(dm); err != nil {
		t.Fatal(err)
	}
	if err := f2.ShutdownVM(dl2); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, led := range []*telemetry.Ledger{led1, led2} {
		for _, r := range led.Records() {
			if r.Class != "sev-state" {
				continue
			}
			m := sevStateRecord.FindStringSubmatch(r.Detail)
			if m == nil {
				t.Errorf("unparsed sev-state record %q", r.Detail)
				continue
			}
			if !sevStateEdges[m[1]] {
				t.Errorf("sev-state record %q is not an SEV API edge", r.Detail)
			}
			seen[m[1]] = true
		}
	}
	for e := range sevStateEdges {
		if !seen[e] {
			t.Errorf("edge %q never recorded: the run does not exercise it", e)
		}
	}
}
