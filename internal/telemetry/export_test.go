package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a fixed event sequence covering every export shape:
// spans, instants, details, multiple VMs/ASIDs, and an out-of-order
// timestamp (the exporter must sort).
func goldenEvents() []Event {
	return []Event{
		{Seq: 0, TS: 100, Dur: 306, Kind: KindGate1, VM: 1, ASID: 1},
		{Seq: 1, TS: 500, Dur: 661, Kind: KindShadowVerify, VM: 1, ASID: 1},
		{Seq: 2, TS: 1200, Kind: KindNPTViolation, VM: 2, ASID: 2, Arg1: 0x7000},
		{Seq: 3, TS: 900, Dur: 5000, Kind: KindSEVCommand, VM: 0, ASID: 0, Arg1: 1, Detail: "launch-start"},
		{Seq: 4, TS: 2000, Dur: 128, Kind: KindMemEncrypt, VM: 1, ASID: 1, Arg1: 0x1000, Arg2: 64},
		{Seq: 5, TS: 2500, Kind: KindViolation, VM: 2, ASID: 2, Detail: "write-once: PIT overwrite"},
	}
}

// TestChromeTraceGolden locks the exporter's byte-exact output. Regenerate
// with: go test ./internal/telemetry -run ChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	names := map[uint32]string{1: "guest-a", 2: "guest-b"}
	if err := WriteChromeTraceSpans(&buf, goldenEvents(), nil, names); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceStructure validates the export semantically: valid JSON,
// sorted timestamps, metadata naming, µs conversion, span vs instant
// phases.
func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	names := map[uint32]string{1: "guest-a", 2: "guest-b"}
	if err := WriteChromeTraceSpans(&buf, goldenEvents(), nil, names); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	var meta, spans, instants int
	procNames := map[float64]string{}
	lastTS := -1.0
	for _, e := range trace.TraceEvents {
		switch e["ph"] {
		case "M":
			meta++
			if e["name"] == "process_name" {
				args := e["args"].(map[string]any)
				procNames[e["pid"].(float64)] = args["name"].(string)
			}
		case "X":
			spans++
			if _, ok := e["dur"]; !ok {
				t.Errorf("span without dur: %v", e)
			}
			ts := e["ts"].(float64)
			if ts < lastTS {
				t.Errorf("timestamps not sorted: %v after %v", ts, lastTS)
			}
			lastTS = ts
		case "i":
			instants++
			if e["s"] != "t" {
				t.Errorf("instant without thread scope: %v", e)
			}
			ts := e["ts"].(float64)
			if ts < lastTS {
				t.Errorf("timestamps not sorted: %v after %v", ts, lastTS)
			}
			lastTS = ts
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	if spans != 4 || instants != 2 {
		t.Errorf("spans=%d instants=%d, want 4/2", spans, instants)
	}
	if procNames[0] != "host" || procNames[1] != "guest-a" || procNames[2] != "guest-b" {
		t.Errorf("process names = %v", procNames)
	}

	// The SEV command at cycle 900 must convert to 900/3400 µs.
	found := false
	for _, e := range trace.TraceEvents {
		if e["name"] == "sev-command" {
			found = true
			wantTS := 900.0 / CyclesPerMicrosecond
			if ts := e["ts"].(float64); ts != wantTS {
				t.Errorf("sev-command ts = %v, want %v", ts, wantTS)
			}
			args := e["args"].(map[string]any)
			if args["detail"] != "launch-start" {
				t.Errorf("detail = %v", args["detail"])
			}
			if args["cycles"].(float64) != 5000 {
				t.Errorf("cycles = %v", args["cycles"])
			}
		}
	}
	if !found {
		t.Error("sev-command event missing from export")
	}
}

// TestHubWriteChromeTrace exports straight from a hub's live tracer.
func TestHubWriteChromeTrace(t *testing.T) {
	clock := uint64(0)
	h := New(func() uint64 { return clock })
	h.NameVM(1, "vm-one")
	h.StartTrace(16)
	clock = 3400
	h.Emit(KindVMExit, 1, 1, 1200, 0x64, 0)
	var buf bytes.Buffer
	if err := h.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"vm-one"`)) {
		t.Error("VM name missing from hub export")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"vmexit"`)) {
		t.Error("vmexit event missing from hub export")
	}
}
