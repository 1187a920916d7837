package main

import (
	"fmt"
	"sort"

	"fidelius"
	"fidelius/internal/telemetry"
)

// sloCycles is the p99 limit of slo_rate: the serve package's default
// per-op deadline.
const sloCycles = 1 << 24

// serveShape is one serving workload: the scenario size, its op mix, the
// per-client key population, and the per-tenant offered-rate ladder with
// the indices of its lo, mid and hi reporting points. Clients are open
// loop with Poisson arrivals and a window of 4 (the serve default);
// arrivals are precomputed on the cycle clock, so the generator can never
// run late and every op is timed from when it was due. Each ladder point
// boots a fresh platform.
type serveShape struct {
	tenants, clients, ops int // ops per client
	putFrac, delFrac      float64
	keys                  int
	ladder                []float64
	lo, mid, hi           int
}

var (
	// putHeavy: 4 tenants x 16 clients x 64 ops = 4096 ops per point, 70%
	// put, 10% delete. 8 keys per client is 128 live keys per tenant, the
	// size of the guest read cache, and about 35 compactions per point;
	// group commit, the coalescer, blkio seeks and the adaptive hold do
	// most of their work here.
	putHeavy = serveShape{tenants: 4, clients: 16, ops: 64, putFrac: 0.7, delFrac: 0.1, keys: 8,
		ladder: []float64{0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2, 4.0}, lo: 0, mid: 3, hi: 5}
	// getHeavy: the same size with 93% gets over 3 keys per client, 48 hot
	// keys per tenant that fit the read cache; the overlay -> cache ->
	// index read path dominates and commits are rare.
	getHeavy = serveShape{tenants: 4, clients: 16, ops: 64, putFrac: 0.05, delFrac: 0.02, keys: 3,
		ladder: []float64{1, 2, 3, 4, 5, 6}, lo: 0, mid: 1, hi: 3}
)

// attempted is the number of ops one ladder point issues.
func (s serveShape) attempted() int { return s.tenants * s.clients * s.ops }

// points lists the ladder indices a pass runs: the whole ladder, or the
// mid point alone in quick mode.
func (s serveShape) points(o options) []int {
	if o.quick {
		return []int{s.mid}
	}
	idx := make([]int, len(s.ladder))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// chromeTrace is the boot index of the hi point's platform, whose
// timeline a traced run writes.
func (s serveShape) chromeTrace(o options) int {
	if o.quick {
		return 0
	}
	return s.hi
}

func rateKey(rate float64) string { return fmt.Sprintf("rate%g.", rate) }

func (s serveShape) pass(r *recorder, o options) error {
	for _, i := range s.points(o) {
		if err := s.point(r, o, s.ladder[i]); err != nil {
			return fmt.Errorf("rate %g: %w", s.ladder[i], err)
		}
	}
	return nil
}

// point runs one ladder point on a fresh platform with the audit ledger
// armed, checks the serving contract, and on a traced pass keeps every
// op's arrival-to-response latency from its serve-request span.
func (s serveShape) point(r *recorder, o options, rate float64) error {
	key := rateKey(rate)
	r.attempted += s.attempted()
	var plat *fidelius.Platform
	if err := r.timeSetup("boot", func() (err error) {
		plat, err = fidelius.NewPlatform(fidelius.Config{Protected: true})
		return err
	}); err != nil {
		return err
	}
	hub := plat.Telemetry()
	r.attach(hub)
	plat.StartAudit()
	var svc *fidelius.ServeService
	if err := r.timeSetup("serve-setup", func() (err error) {
		svc, err = plat.NewServeService(fidelius.ServeConfig{
			Tenants:          s.tenants,
			ClientsPerTenant: s.clients,
			OpsPerClient:     s.ops,
			RatePerMCycle:    rate,
			PutFrac:          s.putFrac,
			DelFrac:          s.delFrac,
			KeySpace:         s.keys,
			Seed:             o.seed,
		})
		return err
	}); err != nil {
		return err
	}
	if err := r.timeRun("serve", []*telemetry.Hub{hub}, func() error {
		for dom, err := range svc.Run() {
			if err != nil {
				return fmt.Errorf("tenant domain %d: %w", dom, err)
			}
		}
		return nil
	}); err != nil {
		r.failed += s.attempted()
		return err
	}

	// An errored answer never matches the client's model, so Mismatches
	// counts errored, wrong and stray responses; wrong ones are the
	// mismatches the contract forbids.
	var done, errored, bad, timeouts, mutations uint64
	for _, t := range svc.Reports() {
		if !t.Admitted {
			r.gate("rate %g: tenant %s was refused admission", rate, t.Name)
		}
		done += t.Ops
		errored += t.Errors
		bad += t.Mismatches
		timeouts += t.Timeouts
		mutations += t.Puts + t.Dels
	}
	attempted := uint64(s.attempted())
	snap := plat.Metrics()
	answered := snap.Counters["serve.ops"]
	if answered+errored != done || snap.Histograms["serve.latency"].Count != done || done > attempted {
		r.gate("rate %g: %d completions do not add up: %d answered + %d errored, %d latency samples, %d attempted",
			rate, done, answered, errored, snap.Histograms["serve.latency"].Count, attempted)
	}
	if bad > errored {
		r.gate("rate %g: %d responses did not match the client's model", rate, bad-errored)
	}
	if err := fidelius.VerifyAuditChain(plat.AuditRecords(), plat.AuditHead()); err != nil {
		r.gate("rate %g: audit chain: %v", rate, err)
	}
	failed := bad + attempted - done
	r.failed += int(failed)
	r.model[key+"elapsed"] = float64(svc.Elapsed())
	r.model[key+"done"] = float64(done)
	r.model[key+"failed"] = float64(failed)
	r.model[key+"timeouts"] = float64(timeouts)
	r.model[key+"mutations"] = float64(mutations)

	spans, err := r.detach(hub)
	if err != nil {
		return err
	}
	if r.traced {
		lat := serveLatencies(spans)
		if uint64(len(lat)) != done {
			r.gate("rate %g: %d serve-request spans for %d completed ops", rate, len(lat), done)
		}
		r.samples[key+"lat"] = lat
	}
	return nil
}

// serveLatencies returns the arrival-to-response cycles of every
// serve-request span, in arrival order.
func serveLatencies(spans []telemetry.Span) []uint64 {
	var reqs []telemetry.Span
	for _, s := range spans {
		if s.Name == "serve-request" {
			reqs = append(reqs, s)
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Start < reqs[j].Start })
	lat := make([]uint64, len(reqs))
	for i, s := range reqs {
		lat[i] = s.End - s.Start
	}
	return lat
}

// growingBacklog reports whether the queue grew over a point: the median
// latency of the last quarter of arrivals is more than twice that of the
// second quarter.
func growingBacklog(lat []uint64) bool {
	n := len(lat)
	if n < 4 {
		return false
	}
	return medianU(lat[3*n/4:]) > 2*medianU(lat[n/4:n/2])
}

// layers adds the serve.goodput rows: ops answered correctly per modelled
// Mcycle of the run window at the lo, mid and hi points.
func (s serveShape) layers(first *recorder, v map[string]float64) {
	for tag, idx := range map[string]int{"lo": s.lo, "mid": s.mid, "hi": s.hi} {
		key := rateKey(s.ladder[idx])
		if el := first.model[key+"elapsed"]; el > 0 {
			v["serve.goodput."+tag] = (float64(s.attempted()) - first.model[key+"failed"]) / (el / 1e6)
		}
	}
}

// metrics derives the serve headline numbers: exact p50/p99 at the lo,
// mid and hi points from the traced pass's latencies (missing ops count
// as +Inf), and slo_rate, the highest fleet rate at which that point and
// every lower one meet p99 <= sloCycles with no failed op and no growing
// backlog.
func (s serveShape) metrics(first, traced *recorder, o options, out map[string]float64) {
	for _, p := range []struct {
		tag string
		idx int
	}{{"lo", s.lo}, {"mid", s.mid}, {"hi", s.hi}} {
		lat, ok := traced.samples[rateKey(s.ladder[p.idx])+"lat"]
		if !ok {
			continue
		}
		sorted := sortedCopy(lat)
		out["p50_mcyc."+p.tag] = rankQuantile(sorted, s.attempted(), 5000) / 1e6
		out["p99_mcyc."+p.tag] = rankQuantile(sorted, s.attempted(), 9900) / 1e6
	}
	slo := 0.0
	for _, i := range s.points(o) {
		key := rateKey(s.ladder[i])
		lat := traced.samples[key+"lat"]
		if first.model[key+"failed"] != 0 || rankQuantile(sortedCopy(lat), s.attempted(), 9900) > sloCycles || growingBacklog(lat) {
			break
		}
		slo = s.ladder[i] * float64(s.tenants)
	}
	out["slo_rate"] = slo
}
