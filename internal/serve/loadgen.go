package serve

import (
	"fmt"
	"math/rand"
)

// Open-loop load generation: every tenant gets a Poisson arrival process
// at a configured offered rate, materialised up front as absolute arrival
// timestamps on the platform's cycle clock. Arrival times never move —
// if the service falls behind, requests queue with their original
// timestamps and the measured latency includes the queueing delay. That
// is the point: a closed-loop generator (issue, wait, issue) slows its
// offered load to whatever the server sustains and silently hides tail
// latency — the coordinated-omission trap. Here the only admission
// throttles are the per-client in-flight window and the ring capacity,
// and both show up in the histogram as queueing, not as missing samples.

// genOp is one generated client operation.
type genOp struct {
	seq     int // index into the tenant's arrival order
	client  int
	kind    uint32
	key     string
	val     []byte
	arrival uint64 // relative cycle offset; rebased at Run
	// Injection-time bookkeeping.
	id       uint64
	injected bool
	// expect models what the client knows it wrote: the value a get must
	// return (nil + expectMiss for a key that should be absent).
	expect     []byte
	expectMiss bool
}

// loadGen holds one tenant's precomputed open-loop schedule plus the
// injection cursor state. All mutation happens in the event-channel
// handlers (under the machine's gate lock); construction is setup-time.
type loadGen struct {
	ops      []genOp
	cursor   int   // first op not yet injected (ops before it are all injected)
	next     []int // per-client index of the next op to inject (per-client FIFO)
	inflight []int // per-client in-flight count
	window   int
	injected int
	// model tracks the value each key holds as of the ops injected so
	// far, giving every get an expected answer at injection time.
	model map[string][]byte
}

// buildLoad generates a tenant's schedule: clients*opsPerClient ops,
// Poisson arrivals at ratePerMCycle (expected ops per million cycles),
// assigned round-robin to clients so each client is an in-order
// subsequence of the tenant stream. keySpace overrides the per-client
// key population (<= 0 selects the default opsPerClient/2+1).
func buildLoad(tenantIdx, clients, opsPerClient, keySpace int, ratePerMCycle float64, putFrac, delFrac float64, valueBytes, window int, rng *rand.Rand) *loadGen {
	total := clients * opsPerClient
	g := &loadGen{
		ops:      make([]genOp, total),
		next:     make([]int, clients),
		inflight: make([]int, clients),
		window:   window,
	}
	if g.window <= 0 {
		g.window = 4
	}
	// Per-client op scripts: the first touch of every key is a put, later
	// ops mix gets, overwrites and deletes over a small keyspace. Ops are
	// dealt to clients round-robin, so client c's j-th op is the tenant's
	// op j*clients+c.
	keyspace := keySpace
	if keyspace <= 0 {
		keyspace = opsPerClient/2 + 1
	}
	seen := make(map[string]bool)
	keys := 0
	for c := 0; c < clients; c++ {
		clear(seen)
		for j := 0; j < opsPerClient; j++ {
			key := fmt.Sprintf("t%d/c%d/k%d", tenantIdx, c, rng.Intn(keyspace))
			op := &g.ops[j*clients+c]
			op.client, op.key = c, key
			r := rng.Float64()
			switch {
			case !seen[key] || r < putFrac:
				op.kind = OpPut
				op.val = randValue(rng, valueBytes)
				seen[key] = true
			case r < putFrac+delFrac:
				op.kind = OpDelete
			default:
				op.kind = OpGet
			}
		}
		keys += len(seen)
	}
	g.model = make(map[string][]byte, keys)
	// One Poisson arrival stream for the tenant.
	meanGap := 1e6 / ratePerMCycle
	now := 0.0
	for i := range g.ops {
		now += rng.ExpFloat64() * meanGap
		g.ops[i].seq = i
		g.ops[i].arrival = uint64(now)
	}
	return g
}

func randValue(rng *rand.Rand, n int) []byte {
	if n <= 0 {
		n = 1
	}
	if n > MaxValLen {
		n = MaxValLen
	}
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + rng.Intn(26))
	}
	return v
}

// rebase shifts all arrival offsets onto the absolute cycle clock.
func (g *loadGen) rebase(start uint64) {
	for i := range g.ops {
		g.ops[i].arrival += start
	}
}

// nextDue returns the next injectable op at the given cycle time — due,
// its client's turn in FIFO order, and within the client's in-flight
// window — or nil. The scan skips window-blocked clients so one slow
// client cannot head-of-line block the whole tenant.
func (g *loadGen) nextDue(now uint64) *genOp {
	for i := g.cursor; i < len(g.ops); i++ {
		op := &g.ops[i]
		if op.injected {
			if i == g.cursor {
				g.cursor++
			}
			continue
		}
		if op.arrival > now {
			return nil // arrivals are sorted: nothing further is due
		}
		if g.next[op.client] != g.clientPos(op) || g.inflight[op.client] >= g.window {
			continue // not this client's turn, or its window is full
		}
		return op
	}
	return nil
}

// clientPos is the op's position within its client's FIFO stream; ops
// are dealt round-robin, so it is the tenant sequence number divided by
// the client count.
func (g *loadGen) clientPos(op *genOp) int { return op.seq / len(g.next) }

// duePressure summarises the uninjected backlog at a cycle time: how
// many ops are due (capped at cap — past that the hold policy's answer
// cannot change, so the scan stops), how many of those are mutations,
// and whether the schedule still has arrivals beyond now. The fill
// handler's hold policy weighs due against its depth target, and a
// hold is only worth anything while future is true: once the last
// arrival is in the past the batch can never get deeper.
func (g *loadGen) duePressure(now uint64, cap int) (due, muts int, future bool) {
	for i := g.cursor; i < len(g.ops); i++ {
		op := &g.ops[i]
		if op.injected {
			continue
		}
		if op.arrival > now {
			return due, muts, true // arrivals are sorted: the rest is future
		}
		due++
		if op.kind != OpGet {
			muts++
		}
		if due >= cap {
			return due, muts, true
		}
	}
	return due, muts, false
}

// markInjected commits an op returned by nextDue: the client model is
// advanced so later gets know what to expect, and the window charged.
func (g *loadGen) markInjected(op *genOp, id uint64) {
	op.id = id
	op.injected = true
	switch op.kind {
	case OpPut:
		g.model[op.key] = op.val
	case OpDelete:
		delete(g.model, op.key)
	case OpGet:
		if v, ok := g.model[op.key]; ok {
			op.expect = v
		} else {
			op.expectMiss = true
		}
	}
	g.next[op.client]++
	g.inflight[op.client]++
	g.injected++
}

// markDone releases the client's window slot on completion.
func (g *loadGen) markDone(op *genOp) {
	g.inflight[op.client]--
}

// exhausted reports whether every generated op has been injected.
func (g *loadGen) exhausted() bool { return g.injected == len(g.ops) }
