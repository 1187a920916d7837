package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// tinyServe is a serve scenario small enough for a unit test: one ladder
// point of 2 tenants x 4 clients x 8 ops.
var tinyServe = serveShape{tenants: 2, clients: 4, ops: 8, putFrac: 0.7, delFrac: 0.1, keys: 4,
	ladder: []float64{1}}

// TestReplayGuard runs the tiny scenario untraced and then traced, as a
// plain run's replay does: the traced pass must reproduce the untraced
// one bit for bit, carry one serve-request span per attempted op, and a
// changed modelled value must trip the guard.
func TestReplayGuard(t *testing.T) {
	o := options{seed: 3}
	first := newRecorder(false, nil)
	if err := tinyServe.pass(first, o); err != nil {
		t.Fatal(err)
	}
	traced := newRecorder(true, first.needCaps)
	if err := tinyServe.pass(traced, o); err != nil {
		t.Fatal(err)
	}
	if gates := append(first.gates, traced.gates...); len(gates) > 0 {
		t.Fatalf("correctness gates failed: %v", gates)
	}
	if d := reproduces(first, traced); d != "" {
		t.Fatalf("traced pass differs from the untraced one: %s", d)
	}
	key := rateKey(tinyServe.ladder[0])
	lat := traced.samples[key+"lat"]
	if len(lat) != tinyServe.attempted() {
		t.Fatalf("%d serve-request spans, want one per attempted op (%d)", len(lat), tinyServe.attempted())
	}
	if _, ok := first.samples[key+"lat"]; ok {
		t.Fatal("the untraced pass kept latencies it cannot have measured")
	}

	traced.model[key+"elapsed"]++
	if reproduces(first, traced) == "" {
		t.Fatal("the guard missed a changed Elapsed")
	}
	traced.model[key+"elapsed"]--
	traced.counts["serve.latency.sum"]++
	if reproduces(first, traced) == "" {
		t.Fatal("the guard missed a changed serve.latency sum")
	}
}

// bruteQuantile is the definition rankQuantile implements, checked the
// slow way: the smallest candidate value v such that at least bp/10000 of
// the population is <= v, where the population is the samples plus
// missing values at +Inf.
func bruteQuantile(xs []uint64, missing, bp int) float64 {
	n := len(xs) + missing
	cands := []float64{math.Inf(1)}
	for _, x := range xs {
		cands = append(cands, float64(x))
	}
	sort.Float64s(cands)
	for _, v := range cands {
		atMost := 0
		for _, x := range xs {
			if float64(x) <= v {
				atMost++
			}
		}
		if math.IsInf(v, 1) {
			atMost = n
		}
		if atMost*10000 >= bp*n {
			return v
		}
	}
	return math.Inf(1)
}

func TestRankQuantileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		xs := make([]uint64, 1+rng.Intn(300))
		for i := range xs {
			xs[i] = uint64(rng.Intn(50)) // ties on purpose
		}
		missing := 0
		if trial%3 == 0 {
			missing = rng.Intn(8)
		}
		sorted := sortedCopy(xs)
		for _, bp := range []int{1, 2500, 5000, 9500, 9900, 9999, 10000} {
			got := rankQuantile(sorted, len(xs)+missing, bp)
			if want := bruteQuantile(xs, missing, bp); got != want {
				t.Fatalf("n=%d missing=%d bp=%d: got %v, want %v", len(xs), missing, bp, got, want)
			}
		}
	}
	// p95 of 320 is the 304th value: integer ranks, no float rounding.
	xs := make([]uint64, 320)
	for i := range xs {
		xs[i] = uint64(i + 1)
	}
	if got := rankQuantile(xs, 320, 9500); got != 304 {
		t.Fatalf("p95 of 1..320 = %v, want 304", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestGrowingBacklog(t *testing.T) {
	steady := []uint64{5, 6, 5, 6, 5, 6, 5, 6}
	growing := []uint64{5, 6, 5, 6, 20, 30, 40, 50}
	if growingBacklog(steady) {
		t.Error("steady latencies flagged as a growing backlog")
	}
	if !growingBacklog(growing) {
		t.Error("a last quarter at 8x the second quarter not flagged")
	}
}
