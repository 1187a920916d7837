package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fidelius/internal/core"
	"fidelius/internal/hw"
	"fidelius/internal/telemetry"
	"fidelius/internal/xen"
)

func newServePlatform(t *testing.T) *core.Fidelius {
	t.Helper()
	m, err := xen.NewMachine(xen.Config{MemPages: 4096, CacheLines: 1024})
	if err != nil {
		t.Fatal(err)
	}
	x, err := xen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Enable(x)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestServeEndToEnd(t *testing.T) {
	f := newServePlatform(t)
	hub := f.X.M.Ctl.Telem
	hub.StartLedger()
	cfg := Config{
		Tenants:          2,
		ClientsPerTenant: 8,
		OpsPerClient:     4,
		RatePerMCycle:    0.5,
	}
	s, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for domID, err := range s.Run() {
		if err != nil {
			t.Fatalf("domain %d: %v", domID, err)
		}
	}

	wantOps := uint64(cfg.ClientsPerTenant * cfg.OpsPerClient)
	reports := s.Reports()
	if len(reports) != cfg.Tenants {
		t.Fatalf("got %d reports, want %d", len(reports), cfg.Tenants)
	}
	for _, r := range reports {
		if !r.Admitted {
			t.Fatalf("%s: admission refused with an untampered measurement", r.Name)
		}
		if r.Ops != wantOps {
			t.Errorf("%s: completed %d ops, want %d", r.Name, r.Ops, wantOps)
		}
		if r.Mismatches != 0 {
			t.Errorf("%s: %d responses disagreed with the client model", r.Name, r.Mismatches)
		}
		if r.Gets+r.Puts+r.Dels != r.Ops {
			t.Errorf("%s: op mix %d+%d+%d does not add to %d", r.Name, r.Gets, r.Puts, r.Dels, r.Ops)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("%s: implausible latency quantiles p50=%.0f p99=%.0f", r.Name, r.P50, r.P99)
		}
		if r.Throughput <= 0 {
			t.Errorf("%s: no throughput recorded", r.Name)
		}
	}

	snap := hub.Reg.Snapshot()
	if got := snap.Counters["serve.ops"]; got != wantOps*uint64(cfg.Tenants) {
		t.Errorf("serve.ops counter %d, want %d", got, wantOps*uint64(cfg.Tenants))
	}
	if h, ok := snap.Histograms["serve.latency"]; !ok || h.Count != wantOps*uint64(cfg.Tenants) {
		t.Errorf("fleet serve.latency histogram missing or short: %+v", h)
	}

	// The stock serve SLOs must evaluate (not skip) end to end.
	evals := s.EvaluateSLOs()
	evaluated := 0
	for _, ev := range evals {
		if !ev.Skipped {
			evaluated++
		}
	}
	if evaluated == 0 {
		t.Error("no serve SLO evaluated against the run")
	}
	led := hub.Ledger()
	if err := telemetry.VerifyChain(led.Records(), led.Head()); err != nil {
		t.Errorf("audit ledger: %v", err)
	}
}

// TestServeAdmissionDenied is the "Insecure Until Proven Updated" check:
// a client whose expected launch measurement disagrees with the quote
// must be refused before any key material exists, the refusal must land
// in the audit ledger as attest-reject, and the hash chain must verify.
func TestServeAdmissionDenied(t *testing.T) {
	f := newServePlatform(t)
	hub := f.X.M.Ctl.Telem
	hub.StartLedger()
	cfg := Config{
		Tenants:          2,
		ClientsPerTenant: 4,
		OpsPerClient:     2,
		RatePerMCycle:    2,
		TamperTenants:    []int{1},
	}
	s, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}

	victim := s.tenants[1]
	if !victim.rejected || victim.admitted {
		t.Fatal("tampered tenant was admitted")
	}
	if victim.dataKey != ([32]byte{}) {
		t.Fatal("key material was minted for a refused session")
	}

	for domID, err := range s.Run() {
		if err != nil {
			t.Fatalf("domain %d: %v", domID, err)
		}
	}
	if victim.keySent {
		t.Error("a key frame was enqueued for a refused session")
	}
	reports := s.Reports()
	if reports[1].Admitted || reports[1].Ops != 0 {
		t.Errorf("refused tenant served traffic: %+v", reports[1])
	}
	if !reports[0].Admitted || reports[0].Ops == 0 {
		t.Errorf("healthy tenant did not serve: %+v", reports[0])
	}

	led := hub.Ledger()
	found := false
	for _, rec := range led.Records() {
		if rec.Class == "attest-reject" && strings.Contains(rec.Detail, "tenant-1") {
			found = true
		}
	}
	if !found {
		t.Error("no attest-reject record in the audit ledger")
	}
	if err := telemetry.VerifyChain(led.Records(), led.Head()); err != nil {
		t.Errorf("ledger chain: %v", err)
	}
	if got := hub.Reg.Snapshot().Counters["serve.rejects"]; got != 1 {
		t.Errorf("serve.rejects = %d, want 1", got)
	}
}

// TestConcurrentServeTenants drives eight tenants through the parallel
// scheduler; it exists to run under -race (make stress picks it up by
// name).
func TestConcurrentServeTenants(t *testing.T) {
	f := newServePlatform(t)
	cfg := Config{
		Tenants:          8,
		ClientsPerTenant: 4,
		OpsPerClient:     2,
		RatePerMCycle:    2,
		Parallel:         true,
		Width:            4,
	}
	s, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for domID, err := range s.Run() {
		if err != nil {
			t.Fatalf("domain %d: %v", domID, err)
		}
	}
	wantOps := uint64(cfg.ClientsPerTenant * cfg.OpsPerClient)
	for _, r := range s.Reports() {
		if !r.Admitted || r.Ops != wantOps || r.Mismatches != 0 {
			t.Errorf("tenant %s: %+v", r.Name, r)
		}
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestServeGuestRefusesForgedRingDepth checks the guest's validation of
// the ring depth the untrusted host publishes in the start info: a
// forged depth would point the guest's response direction at the wrong
// pages and size its batches past the ring, so the guest must stop its
// vCPU with the error before it serves anything.
func TestServeGuestRefusesForgedRingDepth(t *testing.T) {
	for _, depth := range []uint64{0, 7, ringFrames + 1} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			f := newServePlatform(t)
			s, err := New(f, Config{Tenants: 1, ClientsPerTenant: 4, OpsPerClient: 2, RatePerMCycle: 2})
			if err != nil {
				t.Fatal(err)
			}
			tn := s.tenants[0]
			tn.dom.Info.ServeFrames = depth
			errs := s.Run()
			if err := errs[tn.dom.ID]; err == nil || !strings.Contains(err.Error(), "ring depth") {
				t.Fatalf("guest accepted ring depth %d: vCPU error %v", depth, err)
			}
			if r := s.Reports()[0]; r.Ops != 0 {
				t.Errorf("guest served %d ops over a forged ring", r.Ops)
			}
			if got := f.X.M.Ctl.Telem.M.ServeOps.Value(); got != 0 {
				t.Errorf("serve.ops = %d after a forged ring depth", got)
			}
			if log := s.X.ConsoleLog(tn.dom.ID); strings.Contains(string(log), "served") {
				t.Errorf("guest reported serving: %q", log)
			}
		})
	}
}

// TestServeRingCiphertext proves the confidentiality property the ring
// design claims: at every point where the hypervisor can observe the
// shared pages — right after the host fills a request batch, and right
// when the guest posts its responses — no plaintext client value appears
// anywhere on the ring. The tenant disk image is scanned too (it must
// hold only Kblk-encrypted kv sectors). Two run shapes are covered: a
// plain put-heavy run, and a read-cache-enabled overwrite-heavy run
// sized so the log compacts mid-flight — the disk is re-scanned right
// after every compaction, since Compact rewrites the whole live set into
// the other half and a plaintext rewrite would be a fresh leak.
func TestServeRingCiphertext(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// wantCompact asserts the run actually went through at least one
		// live compaction (and that the cache actually served hits), so
		// the scans provably covered the rewrite path.
		wantCompact bool
	}{
		{
			name: "default-frames",
			cfg: Config{
				Tenants: 1, ClientsPerTenant: 8, OpsPerClient: 4,
				RatePerMCycle: 2, PutFrac: 0.6, DelFrac: 0.1,
			},
		},
		{
			name: "compacting-cached",
			cfg: Config{
				Tenants: 1, ClientsPerTenant: 8, OpsPerClient: 16,
				RatePerMCycle: 2, PutFrac: 0.5, DelFrac: 0.15,
				// 3 hot keys per client over a 48-sector half: the write
				// volume (~80 record sectors) overflows the half, so the
				// guest must compact while traffic is still flowing.
				KeySpace: 3, StoreSectors: 97,
			},
			wantCompact: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newServePlatform(t)
			hub := f.X.M.Ctl.Telem
			s, err := New(f, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tn := s.tenants[0]
			// Every plaintext value a client will ever send. Values are
			// random 48-byte strings, so a substring hit in host-visible
			// bytes is an actual leak, not a coincidence.
			var secrets [][]byte
			for i := range tn.gen.ops {
				if op := &tn.gen.ops[i]; op.kind == OpPut && len(tn.gen.value(op)) > 0 {
					secrets = append(secrets, tn.gen.value(op))
				}
			}
			if len(secrets) == 0 {
				t.Fatal("load has no put values to leak")
			}
			page := make([]byte, hw.PageSize)
			scan := func(stage string) error {
				pas := append(append([]hw.PhysAddr{}, tn.reqPAs...), tn.respPAs...)
				for _, pa := range pas {
					if err := s.readPA(pa, page); err != nil {
						return err
					}
					for _, sec := range secrets {
						if bytes.Contains(page, sec) {
							t.Errorf("%s: plaintext value on ring page %#x", stage, pa)
						}
					}
				}
				return nil
			}
			scanDisk := func(stage string) {
				img := tn.disk.Snapshot()
				for _, sec := range secrets {
					if bytes.Contains(img, sec) {
						t.Errorf("%s: plaintext value in the tenant disk image", stage)
					}
				}
			}
			// Re-bind the two ring ports with scanning wrappers around the
			// stock handlers; Bind replaces, so the data path is unchanged.
			// The fill wrapper also watches the compaction counter: the
			// guest compacts between batches, so by the next doorbell a
			// fresh compaction's rewritten half is on disk — scan it then.
			var seenCompactions uint64
			fill, drain := s.fillHandler(tn), s.drainHandler(tn)
			s.X.Events.Bind(tn.dom.ID, DoorbellPort, func() error {
				if err := fill(); err != nil {
					return err
				}
				if n := hub.Reg.Snapshot().Counters["kv.compactions"]; n > seenCompactions {
					seenCompactions = n
					scanDisk("after compaction")
				}
				return scan("after fill")
			})
			s.X.Events.Bind(tn.dom.ID, CompletionPort, func() error {
				if err := scan("at completion"); err != nil {
					return err
				}
				return drain()
			})
			for domID, err := range s.Run() {
				if err != nil {
					t.Fatalf("domain %d: %v", domID, err)
				}
			}
			r := s.Reports()[0]
			want := uint64(tc.cfg.ClientsPerTenant * tc.cfg.OpsPerClient)
			if r.Ops != want || r.Mismatches != 0 || r.Errors != 0 {
				t.Fatalf("ops=%d (want %d), mismatches=%d, errors=%d", r.Ops, want, r.Mismatches, r.Errors)
			}
			scanDisk("after run")
			if tc.wantCompact {
				snap := hub.Reg.Snapshot()
				if snap.Counters["kv.compactions"] == 0 {
					t.Error("run never compacted: the scans did not cover a compaction cycle")
				}
				if snap.Counters["kv.cache_hits"] == 0 {
					t.Error("read cache never hit: the scans did not cover the cached read path")
				}
			}
		})
	}
}

// TestServeGuestServedCounter pins the guest's console accounting to the
// host's serve.ops telemetry: both count exactly the ops answered with a
// definitive status (OK or not-found). The exhausted-store run matters —
// its commits fail wholesale, and the old guest counter incremented for
// those errored ops too, so console and telemetry disagreed exactly when
// an operator needed them to agree.
func TestServeGuestServedCounter(t *testing.T) {
	consoleServed := func(t *testing.T, log []byte) uint64 {
		t.Helper()
		for _, line := range strings.Split(string(log), "\n") {
			var n uint64
			if _, err := fmt.Sscanf(line, "served %d ops", &n); err == nil {
				return n
			}
		}
		t.Fatalf("no served line in console log %q", log)
		return 0
	}
	run := func(t *testing.T, cfg Config) (uint64, uint64, TenantReport) {
		t.Helper()
		f := newServePlatform(t)
		s, err := New(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for domID, err := range s.Run() {
			if err != nil {
				t.Fatalf("domain %d: %v", domID, err)
			}
		}
		got := consoleServed(t, s.X.ConsoleLog(s.tenants[0].dom.ID))
		snap := f.X.M.Ctl.Telem.Reg.Snapshot()
		return got, snap.Counters["serve.ops"], s.Reports()[0]
	}

	t.Run("healthy", func(t *testing.T) {
		cfg := Config{Tenants: 1, ClientsPerTenant: 8, OpsPerClient: 4, RatePerMCycle: 2}
		console, telem, r := run(t, cfg)
		want := uint64(cfg.ClientsPerTenant * cfg.OpsPerClient)
		if console != telem || console != want {
			t.Errorf("console served %d, serve.ops %d, want both %d", console, telem, want)
		}
		if r.Errors != 0 {
			t.Errorf("healthy run reported %d errors", r.Errors)
		}
	})

	t.Run("store-exhausted", func(t *testing.T) {
		// A 4-sector half cannot hold the ~24-key live set: most commits
		// fail even after the compact-and-retry, so a large slice of ops
		// comes back StatusError. Console and telemetry must still agree.
		cfg := Config{
			Tenants: 1, ClientsPerTenant: 8, OpsPerClient: 4,
			RatePerMCycle: 2, PutFrac: 0.8, DelFrac: 0.05,
			StoreSectors: 9,
		}
		console, telem, r := run(t, cfg)
		total := uint64(cfg.ClientsPerTenant * cfg.OpsPerClient)
		if r.Errors == 0 {
			t.Fatal("exhausted store produced no errored ops; the run does not exercise the disputed accounting")
		}
		if console != telem {
			t.Errorf("console served %d but serve.ops = %d", console, telem)
		}
		if console+r.Errors != total {
			t.Errorf("served %d + errors %d != %d completions", console, r.Errors, total)
		}
	})
}

// TestServeAdaptiveDepth exercises the fill handler's hold policy at the
// put-heavy saturating rate this PR targets (1.6 ops/Mcycle/tenant, the
// old knee): with the default hold budget the handler must actually hold
// doorbells to form deeper batches, the posted-depth histogram must show
// batching, and p50 must both beat the hold-disabled baseline and clear
// the serve-p50 objective. A negative budget must disable holding
// entirely.
func TestServeAdaptiveDepth(t *testing.T) {
	run := func(t *testing.T, hold int64) (p50 float64, holds uint64, depth float64) {
		t.Helper()
		f := newServePlatform(t)
		cfg := Config{
			Tenants: 4, ClientsPerTenant: 16, OpsPerClient: 2,
			RatePerMCycle: 1.6, PutFrac: 0.7, DelFrac: 0.1,
			Seed: 7, HoldBudgetCycles: hold,
		}
		s, err := New(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for domID, err := range s.Run() {
			if err != nil {
				t.Fatalf("domain %d: %v", domID, err)
			}
		}
		want := uint64(cfg.ClientsPerTenant * cfg.OpsPerClient)
		for _, r := range s.Reports() {
			if r.Ops != want || r.Mismatches != 0 || r.Errors != 0 {
				t.Fatalf("tenant %s: ops=%d (want %d), mismatches=%d, errors=%d",
					r.Name, r.Ops, want, r.Mismatches, r.Errors)
			}
		}
		snap := f.X.M.Ctl.Telem.Reg.Snapshot()
		lat, ok := snap.Histograms["serve.latency"]
		if !ok || lat.Count == 0 {
			t.Fatal("no serve.latency histogram")
		}
		d, ok := snap.Histograms["serve.batch_depth"]
		if !ok || d.Count == 0 {
			t.Fatal("no serve.batch_depth histogram")
		}
		return lat.Quantile(0.50), snap.Counters["serve.holds"], d.Mean()
	}

	p50Hold, holds, depth := run(t, 0) // 0 = default budget
	p50Free, freeHolds, _ := run(t, -1)
	if holds == 0 {
		t.Error("hold policy never engaged at the saturating rate")
	}
	if freeHolds != 0 {
		t.Errorf("%d holds recorded with holding disabled", freeHolds)
	}
	if depth <= 1 {
		t.Errorf("average posted batch depth %.2f; want batching above depth 1", depth)
	}
	if p50Hold >= p50Free {
		t.Errorf("hold policy did not improve p50: %.0f (hold) vs %.0f (disabled)", p50Hold, p50Free)
	}
	if limit := float64(8 << 20); p50Hold > limit {
		t.Errorf("p50 %.0f above the %.0f-cycle serve-p50 objective at 1.6 ops/Mcycle/tenant", p50Hold, limit)
	}
}

// TestServeBatchedGroupCommit drives one tenant far past the old
// per-put saturation rate and checks the batch path end to end: every
// response still matches the client model (the overlay preserves FIFO
// reads-own-writes inside a batch), mutations ride group commits with
// average depth above one, and the write-seek counter shows the
// collapse — the old path paid ~2 write seeks per mutation.
func TestServeBatchedGroupCommit(t *testing.T) {
	f := newServePlatform(t)
	hub := f.X.M.Ctl.Telem
	cfg := Config{
		Tenants:          1,
		ClientsPerTenant: 16,
		OpsPerClient:     4,
		RatePerMCycle:    6,
		PutFrac:          0.7,
		DelFrac:          0.1,
	}
	s, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for domID, err := range s.Run() {
		if err != nil {
			t.Fatalf("domain %d: %v", domID, err)
		}
	}
	r := s.Reports()[0]
	want := uint64(cfg.ClientsPerTenant * cfg.OpsPerClient)
	if r.Ops != want || r.Mismatches != 0 {
		t.Fatalf("ops=%d (want %d), mismatches=%d", r.Ops, want, r.Mismatches)
	}
	muts := r.Puts + r.Dels
	if muts == 0 {
		t.Fatal("put-heavy mix produced no mutations")
	}
	snap := hub.Reg.Snapshot()
	commits := snap.Counters["kv.group_commits"]
	seq := snap.Counters["kv.seq_writes"]
	if commits == 0 {
		t.Fatal("no kv group commits recorded")
	}
	if commits >= muts {
		t.Errorf("%d group commits for %d mutations: batches never deeper than one", commits, muts)
	}
	if seq == 0 {
		t.Error("no coalesced sequential writes recorded")
	}
	seeks := snap.Counters["xen.disk_seeks{kind=write}"]
	if perMut := float64(seeks) / float64(muts); perMut >= 1 {
		t.Errorf("%.2f write seeks per mutation; group commit should stay well under the old path's 2", perMut)
	}
}

func TestRingCodecRoundTrip(t *testing.T) {
	buf := make([]byte, SectorSize)
	val := bytes.Repeat([]byte{0xAB}, MaxValLen)
	if err := encodeRequest(buf, 42, OpPut, strings.Repeat("k", MaxKeyLen), val); err != nil {
		t.Fatal(err)
	}
	id, op, key, gotVal, err := decodeRequest(buf)
	if err != nil || id != 42 || op != OpPut || len(key) != MaxKeyLen || !bytes.Equal(gotVal, val) {
		t.Fatalf("request round trip: id=%d op=%d keyLen=%d err=%v", id, op, len(key), err)
	}
	if err := encodeRequest(buf, 1, OpPut, "k", make([]byte, MaxValLen+1)); err == nil {
		t.Error("oversized value encoded")
	}

	if err := encodeResponse(buf, 7, StatusNotFound, []byte("v")); err != nil {
		t.Fatal(err)
	}
	id, status, gotVal, err := decodeResponse(buf)
	if err != nil || id != 7 || status != StatusNotFound || string(gotVal) != "v" {
		t.Fatalf("response round trip: id=%d status=%d val=%q err=%v", id, status, gotVal, err)
	}

	encodeReqCtl(buf, 5, FlagStop)
	count, flags, err := decodeReqCtl(buf)
	if err != nil || count != 5 || flags != FlagStop {
		t.Fatalf("req ctl round trip: count=%d flags=%d err=%v", count, flags, err)
	}
	encodeRespCtl(buf, 3)
	if count, err := decodeRespCtl(buf); err != nil || count != 3 {
		t.Fatalf("resp ctl round trip: count=%d err=%v", count, err)
	}
	buf[0] ^= 1
	if _, err := decodeRespCtl(buf); err == nil {
		t.Error("corrupt control sector decoded")
	}
}

// TestLoadGenOpenLoop checks the generator's invariants: arrivals are
// monotone, injection respects per-client FIFO order and the in-flight
// window, and every get expects what a map of the client's own writes,
// kept in injection order, says its key holds.
func TestLoadGenOpenLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildLoad(0, 4, 16, 0, 10, 0.35, 0.10, 16, 2, rng)
	if g.total() != 64 {
		t.Fatalf("generated %d ops, want 64", g.total())
	}
	for i := 1; i < len(g.ops); i++ {
		if g.ops[i].arrival < g.ops[i-1].arrival {
			t.Fatal("arrivals not monotone")
		}
	}

	// Drain the whole schedule through the window machinery.
	lastSeq := make(map[int]int32)
	var clock uint64
	inflight := map[int][]*genOp{}
	written := map[string][]byte{}
	for g.injected < g.total() {
		clock += 1 << 16
		for {
			op := g.nextDue(clock)
			if op == nil {
				break
			}
			c := g.client(op)
			if last, ok := lastSeq[c]; ok && op.seq <= last {
				t.Fatal("per-client FIFO order violated")
			}
			lastSeq[c] = op.seq
			g.markInjected(op)
			inflight[c] = append(inflight[c], op)
			if len(inflight[c]) > 2 {
				t.Fatal("in-flight window exceeded")
			}
			key := g.key(op)
			switch op.kind {
			case OpPut:
				written[key] = g.value(op)
			case OpDelete:
				delete(written, key)
			case OpGet:
				want, ok := written[key]
				if got := g.value(op); (op.val != noValue) != ok || !bytes.Equal(got, want) {
					t.Fatalf("get of %s expects %q (present %v), the client wrote %q (present %v)",
						key, got, op.val != noValue, want, ok)
				}
			}
			// Complete the oldest op for this client half the time, so
			// windows genuinely fill and drain.
			if len(inflight[c]) == 2 {
				done := inflight[c][0]
				inflight[c] = inflight[c][1:]
				g.markDone(done)
			}
		}
	}
	if !g.exhausted() {
		t.Fatal("generator not exhausted after full drain")
	}
}

// TestSessionKeystreamKnownAnswer pins the session cipher's bytes: the
// keystream is SHA-256(dataKey || recordKey || little-endian block
// index), and xorSession applies it 32 bytes at a time, the last block
// truncated.
func TestSessionKeystreamKnownAnswer(t *testing.T) {
	var dataKey [32]byte
	for i := range dataKey {
		dataKey[i] = byte(i * 7)
	}
	for _, c := range []struct {
		key   string
		block int
		want  string
	}{
		{"t0/c1/k2", 0, "6b684f597fb25ae125b35d9b8e9d61ac1a165b9ed87eef11ae4508b4edb3428a"},
		{"t0/c1/k2", 1, "89412631c0ff4e0e9e800f5cafd7e9602aef2f7f826486c6364d4d5d417def7e"},
		{"t3/c15/k7", 258, "711fec1fe278283d8839decd12bee161bcb4948d0c78a9818f9c5752ce33f5e4"},
	} {
		if got := fmt.Sprintf("%x", sessionKeystream(dataKey, c.key, c.block)); got != c.want {
			t.Errorf("sessionKeystream(%q, %d) = %s, want %s", c.key, c.block, got, c.want)
		}
	}
	data := bytes.Repeat([]byte{0x5a}, 70)
	xorSession(dataKey, "t0/c1/k2", data)
	const wantXor = "3132150325e800bb7fe907c1d4c73bf6404c01c48224b54bf41f52eeb7e918d0d31b7c6b9aa51454c4da5506f58db33a70b57525d83edc9c6c1717071b27b524b1c777357619"
	if got := fmt.Sprintf("%x", data); got != wantXor {
		t.Errorf("xorSession = %s, want %s", got, wantXor)
	}
}

// TestXorSessionAllocsNothing guards the session cipher: the keystream
// hash input is assembled on the stack and hashed with sha256.Sum256.
func TestXorSessionAllocsNothing(t *testing.T) {
	var dataKey [32]byte
	data := make([]byte, MaxValLen)
	allocs := testing.AllocsPerRun(100, func() {
		xorSession(dataKey, "t0/c1/k2", data)
	})
	if allocs != 0 {
		t.Fatalf("xorSession over %d bytes allocated %v times, want 0", len(data), allocs)
	}
}

// total reports the schedule length.
func (g *loadGen) total() int { return len(g.ops) }
