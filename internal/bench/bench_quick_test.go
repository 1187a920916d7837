package bench

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"fidelius/internal/workload"
)

// TestFigure5Shape verifies the SPEC overhead shape (E1) at reduced
// iteration counts: who suffers, by roughly what factor.
func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5(12)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FigRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Memory-bound benchmarks suffer most from encryption.
	if byName["mcf"].Enc < 10 {
		t.Errorf("mcf enc overhead %.2f%%, want >10%%", byName["mcf"].Enc)
	}
	if byName["omnetpp"].Enc < 10 {
		t.Errorf("omnetpp enc overhead %.2f%%, want >10%%", byName["omnetpp"].Enc)
	}
	// Compute-bound benchmarks see almost none.
	for _, n := range []string{"bzip2", "hmmer", "h264ref"} {
		if byName[n].Enc > 2 {
			t.Errorf("%s enc overhead %.2f%%, want <2%%", n, byName[n].Enc)
		}
	}
	// Fidelius alone is ~1%.
	avg := Average(rows)
	if avg.Fid < 0 || avg.Fid > 2.5 {
		t.Errorf("average fidelius overhead %.2f%%, want ~1%%", avg.Fid)
	}
	if avg.Enc < 3 || avg.Enc > 9 {
		t.Errorf("average enc overhead %.2f%%, want ~5.4%%", avg.Enc)
	}
	// Ordering: enc >= fid for every benchmark (encryption only adds).
	for _, r := range rows {
		if r.Enc+0.5 < r.Fid {
			t.Errorf("%s: enc (%.2f) below fidelius (%.2f)", r.Name, r.Enc, r.Fid)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	rows, err := Figure6(12)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FigRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["canneal"].Enc < 8 {
		t.Errorf("canneal enc overhead %.2f%%, want >8%% (paper: 14.27%%)", byName["canneal"].Enc)
	}
	for _, r := range rows {
		if r.Name == "canneal" {
			continue
		}
		if r.Enc > 6 {
			t.Errorf("%s enc overhead %.2f%%, want <6%%", r.Name, r.Enc)
		}
	}
	avg := Average(rows)
	if avg.Fid > 1.5 {
		t.Errorf("average fidelius overhead %.2f%%, want ~0.4%%", avg.Fid)
	}
	if avg.Enc < 0.8 || avg.Enc > 4.5 {
		t.Errorf("average enc overhead %.2f%%, want ~2%%", avg.Enc)
	}
	out := FormatFigure("fig6", rows)
	if !strings.Contains(out, "canneal") || !strings.Contains(out, "average") {
		t.Error("formatted figure incomplete")
	}
}

// TestTable3Shape verifies the fio asymmetry (E3): seq-read suffers most,
// writes little, random patterns least.
func TestTable3Shape(t *testing.T) {
	rows, err := Table3(320)
	if err != nil {
		t.Fatal(err)
	}
	byPat := map[workload.FioPattern]FioRow{}
	for _, r := range rows {
		byPat[r.Pattern] = r
	}
	sr := byPat[workload.SeqRead].Slowdown
	sw := byPat[workload.SeqWrite].Slowdown
	rr := byPat[workload.RandRead].Slowdown
	rw := byPat[workload.RandWrite].Slowdown
	if sr < 15 || sr > 32 {
		t.Errorf("seq-read slowdown %.2f%%, want ~23%% (paper: 22.91%%)", sr)
	}
	if sw < 1 || sw > 8 {
		t.Errorf("seq-write slowdown %.2f%%, want ~3.6%%", sw)
	}
	if rr > 4 {
		t.Errorf("rand-read slowdown %.2f%%, want <4%% (paper: 1.38%%)", rr)
	}
	if rw > 2.5 {
		t.Errorf("rand-write slowdown %.2f%%, want <2.5%% (paper: 0.70%%)", rw)
	}
	// The ordering of Table 3.
	if !(sr > sw && sw > rw) {
		t.Errorf("slowdown ordering violated: sr=%.2f sw=%.2f rr=%.2f rw=%.2f", sr, sw, rr, rw)
	}
	if s := FormatTable3(rows); !strings.Contains(s, "seq-read") {
		t.Error("formatted table incomplete")
	}
}

// TestMicroGates verifies E4 exactly: the gate costs are the paper's
// measured 306/16/339 cycles.
func TestMicroGates(t *testing.T) {
	g, err := MicroBenchGates(100)
	if err != nil {
		t.Fatal(err)
	}
	if g.Gate1 != 306 {
		t.Errorf("type 1 gate = %d cycles, want 306", g.Gate1)
	}
	if g.Gate2 != 16 {
		t.Errorf("type 2 gate = %d cycles, want 16", g.Gate2)
	}
	if g.Gate3 != 339 {
		t.Errorf("type 3 gate = %d cycles, want 339", g.Gate3)
	}
	if g.Gate3TLBFlush != 128 {
		t.Errorf("TLB flush share = %d, want 128", g.Gate3TLBFlush)
	}
	if g.Gate3CacheWrt >= 2+1 {
		t.Errorf("page-table write share = %d, want <2 per paper", g.Gate3CacheWrt)
	}
}

// TestMicroShadow verifies E5: the shadow-and-check cost per void
// hypercall round trip is ~661 cycles.
func TestMicroShadow(t *testing.T) {
	s, err := MicroBenchShadow(200)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shadow < 600 || s.Shadow > 730 {
		t.Errorf("shadow cost = %d cycles, want ~661", s.Shadow)
	}
	if s.FideliusRT <= s.XenRT {
		t.Error("Fidelius round trip should exceed Xen's")
	}
}

// TestMicroIOCrypt verifies E6: AES-NI ~11.49%, SEV/SME ~8.69%, software
// >20x.
func TestMicroIOCrypt(t *testing.T) {
	r := MicroBenchIOCrypt(1 << 20)
	if math.Abs(r.AESNISlowdown-11.49) > 1.0 {
		t.Errorf("AES-NI slowdown %.2f%%, want ~11.49%%", r.AESNISlowdown)
	}
	if math.Abs(r.SEVSlowdown-8.69) > 1.0 {
		t.Errorf("SEV slowdown %.2f%%, want ~8.69%%", r.SEVSlowdown)
	}
	if r.SoftwareRatio < 20 {
		t.Errorf("software ratio %.1fx, want >20x", r.SoftwareRatio)
	}
}

func TestNewPlatformConfigs(t *testing.T) {
	for _, cfg := range Configs {
		p, err := NewPlatform(cfg, 32)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if (p.F != nil) != (cfg != ConfigXen) {
			t.Errorf("%s: fidelius presence wrong", cfg)
		}
	}
}

// TestBootFootprint guards the host cost of one boot: DRAM frames are
// backed on first write and the monopolisation scan is a byte pass, so a
// platform allocates in proportion to what it touches. A full-DRAM scrub
// or a per-byte allocating scan coming back would blow through this.
func TestBootFootprint(t *testing.T) {
	const limit = 4 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewPlatform(ConfigFideliusEnc, workload.GuestMemPages)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("one boot allocated %d bytes, want < %d", got, limit)
	}
}
