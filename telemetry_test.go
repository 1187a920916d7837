package fidelius

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fidelius/internal/telemetry"
)

// TestTelemetryEndToEnd drives a protected VM session with tracing on and
// checks the whole observability chain: the unified registry serves the
// gate statistics, the trace carries every event family the paper's hot
// paths emit, and the Chrome export labels tracks per VM.
func TestTelemetryEndToEnd(t *testing.T) {
	plat, err := NewPlatform(Config{Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	plat.StartTrace(0)

	owner, err := NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	kernel := bytes.Repeat([]byte("telemetry-kernel"), 256)
	diskImg := bytes.Repeat([]byte("disk-content-16b"), 64)
	bundle, kblk, err := PrepareGuest(owner, plat.PlatformKey(), kernel, diskImg)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := plat.LaunchVM("traced-guest", 64, bundle)
	if err != nil {
		t.Fatal(err)
	}
	dk := NewDisk(128)
	if _, err := plat.AttachDisk(vm, dk, 2, 1, bundle); err != nil {
		t.Fatal(err)
	}
	plat.StartVCPU(vm, func(g *GuestEnv) error {
		if err := g.Write(0x8000, []byte("traced payload00")); err != nil {
			return err
		}
		buf := make([]byte, 16)
		if err := g.Read(0x8000, buf); err != nil {
			return err
		}
		if _, err := g.Hypercall(HCVoid); err != nil {
			return err
		}
		bf, err := NewBlockFrontend(g)
		if err != nil {
			return err
		}
		front, err := NewAESNIFront(g, bf, kblk)
		if err != nil {
			return err
		}
		sector := make([]byte, SectorSize)
		return front.ReadSectors(0, sector)
	})
	if err := plat.Run(vm); err != nil {
		t.Fatal(err)
	}

	snap := plat.Metrics()
	if snap.Counters["gate.type1"] == 0 || snap.Counters["vmcb.shadows"] == 0 {
		t.Fatalf("protected run recorded no gate activity: %v", snap.Counters)
	}
	if snap.Counters["cpu.vmexits"] == 0 || snap.Counters["sev.commands"] == 0 {
		t.Fatalf("missing core counters: %v", snap.Counters)
	}
	if snap.Counters["blk.requests"] == 0 {
		t.Fatal("block request counter not driven by the PV ring")
	}

	// The trace must carry the paper's event families.
	tr := plat.Telemetry().Trace()
	if tr == nil || len(tr.Events()) == 0 {
		t.Fatal("no trace captured")
	}
	seen := map[telemetry.Kind]bool{}
	for _, e := range tr.Events() {
		seen[e.Kind] = true
	}
	for _, k := range []telemetry.Kind{
		telemetry.KindVMRun, telemetry.KindVMExit,
		telemetry.KindGate1, telemetry.KindGate3,
		telemetry.KindShadowSave, telemetry.KindShadowVerify,
		telemetry.KindSEVCommand,
		telemetry.KindMemEncrypt, telemetry.KindMemDecrypt,
		telemetry.KindBlkRequest, telemetry.KindHypercall,
	} {
		if !seen[k] {
			t.Errorf("event kind %v missing from trace", k)
		}
	}

	// Chrome export: valid JSON, and the VM's track is named.
	var out strings.Builder
	if err := plat.WriteTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			PID  uint32          `json:"pid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var named bool
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" && e.PID == uint32(vm.ID) &&
			strings.Contains(string(e.Args), "traced-guest") {
			named = true
		}
	}
	if !named {
		t.Fatal("VM process track not labeled with the domain name")
	}

	// Violation audit log rides the same stream: the start-info page is
	// under the write-once policy and AttachDisk already wrote it, so a
	// second write must raise a violation in registry, trace and log.
	pre := snap.Counters["violations.total"]
	if err := plat.X.WriteStartInfo(vm); err == nil {
		t.Fatal("second start-info write should be vetoed")
	}
	post := plat.Metrics().Counters["violations.total"]
	if post <= pre {
		t.Fatalf("violation not counted: %d -> %d", pre, post)
	}
	var gotViolation bool
	for _, e := range plat.Telemetry().Trace().Events() {
		if e.Kind == telemetry.KindViolation {
			gotViolation = true
		}
	}
	if !gotViolation {
		t.Fatal("violation missing from event stream")
	}
	if len(plat.Violations()) == 0 {
		t.Fatal("violation missing from audit log")
	}
	var dump strings.Builder
	plat.DumpViolations(&dump)
	if !strings.Contains(dump.String(), "violation") {
		t.Fatalf("DumpViolations output: %q", dump.String())
	}
}
