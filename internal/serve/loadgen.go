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

// genOp is one generated client operation, 24 bytes. Its key and value
// are indices into the generator's key table and value arena, so a
// schedule costs no string or slice per op, and its client is seq %
// clients, since ops are dealt round-robin.
type genOp struct {
	arrival uint64 // relative cycle offset; rebased at Run
	seq     int32  // index into the tenant's arrival order
	key     int32  // slot in the generator's key table
	// val is a put's value index in the arena. A get's is noValue until
	// it is injected, then the value the client knows it wrote there
	// (noValue for a key that should be absent). A delete's is noValue.
	val      int32
	kind     uint8
	injected bool
}

// noValue is the val of an op that carries or expects no value.
const noValue = -1

// arenaChunk is the byte size of one value arena chunk.
const arenaChunk = 4096

// loadGen holds one tenant's precomputed open-loop schedule plus the
// injection cursor state. All mutation happens in the event-channel
// handlers (under the machine's gate lock); construction is setup-time.
type loadGen struct {
	ops []genOp
	// keys is the key table, one slot per client and key number (slot
	// client*keyspace+k), each formatted on its first draw. A slot never
	// drawn stays "".
	keys []string
	// arena holds the put values back to back, vlen bytes each, in
	// chunks of perChunk values.
	arena          [][]byte
	vlen, perChunk int
	nvals          int

	cursor   int   // first op not yet injected (ops before it are all injected)
	next     []int // per-client index of the next op to inject (per-client FIFO)
	inflight []int // per-client in-flight count
	window   int
	injected int
	// model tracks, per key slot, the value index the key holds as of
	// the ops injected so far (noValue = absent), giving every get an
	// expected answer at injection time.
	model []int32
}

// buildLoad generates a tenant's schedule: clients*opsPerClient ops,
// Poisson arrivals at ratePerMCycle (expected ops per million cycles),
// assigned round-robin to clients so each client is an in-order
// subsequence of the tenant stream. keySpace overrides the per-client
// key population (<= 0 selects the default opsPerClient/2+1); the key
// table holds clients*keySpace slots whether drawn or not.
func buildLoad(tenantIdx, clients, opsPerClient, keySpace int, ratePerMCycle float64, putFrac, delFrac float64, valueBytes, window int, rng *rand.Rand) *loadGen {
	total := clients * opsPerClient
	keyspace := keySpace
	if keyspace <= 0 {
		keyspace = opsPerClient/2 + 1
	}
	vlen := min(max(valueBytes, 1), MaxValLen)
	g := &loadGen{
		ops:      make([]genOp, total),
		keys:     make([]string, clients*keyspace),
		vlen:     vlen,
		perChunk: arenaChunk / vlen,
		next:     make([]int, clients),
		inflight: make([]int, clients),
		window:   window,
		model:    make([]int32, clients*keyspace),
	}
	if g.window <= 0 {
		g.window = 4
	}
	for i := range g.model {
		g.model[i] = noValue
	}
	// Per-client op scripts: the first touch of every key is a put, later
	// ops mix gets, overwrites and deletes over a small keyspace. Ops are
	// dealt to clients round-robin, so client c's j-th op is the tenant's
	// op j*clients+c.
	for c := 0; c < clients; c++ {
		for j := 0; j < opsPerClient; j++ {
			slot := c*keyspace + rng.Intn(keyspace)
			op := &g.ops[j*clients+c]
			op.key, op.val = int32(slot), noValue
			first := g.keys[slot] == ""
			if first {
				g.keys[slot] = fmt.Sprintf("t%d/c%d/k%d", tenantIdx, c, slot-c*keyspace)
			}
			r := rng.Float64()
			switch {
			case first || r < putFrac:
				op.kind = OpPut
				op.val = g.newValue(rng)
			case r < putFrac+delFrac:
				op.kind = OpDelete
			default:
				op.kind = OpGet
			}
		}
	}
	// One Poisson arrival stream for the tenant.
	meanGap := 1e6 / ratePerMCycle
	now := 0.0
	for i := range g.ops {
		now += rng.ExpFloat64() * meanGap
		g.ops[i].seq = int32(i)
		g.ops[i].arrival = uint64(now)
	}
	return g
}

// newValue draws the next put value into the arena and returns its
// index.
func (g *loadGen) newValue(rng *rand.Rand) int32 {
	i := g.nvals
	g.nvals++
	if i/g.perChunk == len(g.arena) {
		g.arena = append(g.arena, make([]byte, g.perChunk*g.vlen))
	}
	v := g.valueAt(int32(i))
	for j := range v {
		v[j] = byte('a' + rng.Intn(26))
	}
	return int32(i)
}

// valueAt returns arena value i, capped so it cannot grow into its
// neighbour, or nil for noValue.
func (g *loadGen) valueAt(i int32) []byte {
	if i == noValue {
		return nil
	}
	off := int(i) % g.perChunk * g.vlen
	return g.arena[int(i)/g.perChunk][off : off+g.vlen : off+g.vlen]
}

// key returns the op's key.
func (g *loadGen) key(op *genOp) string { return g.keys[op.key] }

// value returns a put's value, or the value an injected get expects; nil
// when there is none.
func (g *loadGen) value(op *genOp) []byte { return g.valueAt(op.val) }

// client returns the client that issues the op.
func (g *loadGen) client(op *genOp) int { return int(op.seq) % len(g.next) }

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
		if c := g.client(op); g.next[c] != g.clientPos(op) || g.inflight[c] >= g.window {
			continue // not this client's turn, or its window is full
		}
		return op
	}
	return nil
}

// clientPos is the op's position within its client's FIFO stream; ops
// are dealt round-robin, so it is the tenant sequence number divided by
// the client count.
func (g *loadGen) clientPos(op *genOp) int { return int(op.seq) / len(g.next) }

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
func (g *loadGen) markInjected(op *genOp) {
	op.injected = true
	switch op.kind {
	case OpPut:
		g.model[op.key] = op.val
	case OpDelete:
		g.model[op.key] = noValue
	case OpGet:
		op.val = g.model[op.key]
	}
	c := g.client(op)
	g.next[c]++
	g.inflight[c]++
	g.injected++
}

// markDone releases the client's window slot on completion.
func (g *loadGen) markDone(op *genOp) {
	g.inflight[g.client(op)]--
}

// responseOK checks one response against the client's model of its own
// writes (per-client FIFO makes the expectation exact at injection time).
func (g *loadGen) responseOK(op *genOp, status uint32, val []byte) bool {
	switch op.kind {
	case OpPut, OpDelete:
		return status == StatusOK
	case OpGet:
		if op.val == noValue {
			return status == StatusNotFound
		}
		return status == StatusOK && string(val) == string(g.value(op))
	}
	return false
}

// exhausted reports whether every generated op has been injected.
func (g *loadGen) exhausted() bool { return g.injected == len(g.ops) }
