// Package lockrank is the debug lock-rank checker behind the
// hypervisor's sharded locking discipline (DESIGN.md §4f).
//
// The big hypervisor lock is gone; in its place every shared structure
// carries its own mutex with a static *rank*, and the documented lock
// order
//
//	domain → shared-shard → shootdown bus → tracer/ledger leaves
//
// is the rule that ranks held by one goroutine must strictly increase.
// In normal builds the checker is off and a ranked mutex costs one
// atomic load over a plain sync.Mutex; with FIDELIUS_LOCKRANK=1 (or
// SetEnabled) every acquisition is validated against the goroutine's
// held-rank stack and any inversion panics with both ranks named.
//
// Ranked mutexes also count contention: a Lock that cannot TryLock
// immediately bumps the wait counter wired in at Init, which the
// hypervisor exports as the xen.lock_waits metric family. That counter
// is how the "quanta of distinct domains do not contend" property is
// asserted, not just claimed.
package lockrank

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Rank is a static position in the lock order. Lower ranks are acquired
// first; a goroutine may only acquire a lock whose rank is strictly
// greater than every rank it already holds. Rank 0 marks an unranked
// lock the checker ignores (zero-value mutexes before Init).
type Rank int

// The lock order. Gaps leave room for future shards without renumbering.
const (
	// RankUnranked is the zero value: the checker skips these locks.
	RankUnranked Rank = 0

	// RankDomain is a domain's own lock (VMCB, interposer seam, NPT,
	// dirty log, console). Acquired first: a quantum holds it for its
	// whole duration.
	RankDomain Rank = 10

	// Shared-structure shards, each independently locked.
	RankEvents   Rank = 20 // event-channel bus handler table
	RankStore    Rank = 21 // XenStore key/value space
	RankASIDPool Rank = 22 // ASID allocator free/dirty lists
	RankGate     Rank = 30 // host/gate lock: shared-CPU state, gate transitions, grant bytes
	RankDoms     Rank = 31 // domain registry (Doms, vmcbToDom, backends)
	RankFirmware Rank = 32 // SEV firmware context/active/dirty tables
	RankFrames   Rank = 33 // a domain's gfn→pfn backing map
	RankAlloc    Rank = 34 // physical page allocator

	// RankBus is the TLB shootdown bus, below only the leaves.
	RankBus Rank = 40

	// RankLeaf is for leaf locks that never acquire anything else
	// (violation log; the tracer and ledger use their own unranked
	// internal locks and are leaves by construction).
	RankLeaf Rank = 50
)

// String names a rank for panic messages and docs.
func (r Rank) String() string {
	switch r {
	case RankUnranked:
		return "unranked"
	case RankDomain:
		return "domain"
	case RankEvents:
		return "events"
	case RankStore:
		return "store"
	case RankASIDPool:
		return "asid-pool"
	case RankGate:
		return "gate"
	case RankDoms:
		return "doms"
	case RankFirmware:
		return "firmware"
	case RankFrames:
		return "frames"
	case RankAlloc:
		return "alloc"
	case RankBus:
		return "bus"
	case RankLeaf:
		return "leaf"
	}
	return fmt.Sprintf("rank(%d)", int(r))
}

var enabled atomic.Bool

func init() {
	if os.Getenv("FIDELIUS_LOCKRANK") == "1" {
		enabled.Store(true)
	}
}

// SetEnabled turns the checker on or off at runtime (tests use this; CI
// uses the FIDELIUS_LOCKRANK=1 environment variable).
func SetEnabled(on bool) { enabled.Store(on) }

// Per-goroutine held-rank stacks. Only maintained while the checker is
// enabled; the map is keyed by goroutine ID parsed from runtime.Stack
// (the same trick the runtime's own lockrank debug mode documents).
var (
	heldMu sync.Mutex
	held   = map[int64][]Rank{}
)

var goroutinePrefix = []byte("goroutine ")

func gid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := bytes.TrimPrefix(buf[:n], goroutinePrefix)
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(string(s), 10, 64)
	return id
}

func checkAcquire(r Rank) {
	g := gid()
	heldMu.Lock()
	defer heldMu.Unlock()
	for _, h := range held[g] {
		if h >= r {
			panic(fmt.Sprintf("lockrank: acquiring %v while holding %v (ranks must strictly increase)", r, h))
		}
	}
	held[g] = append(held[g], r)
}

func checkRelease(r Rank) {
	g := gid()
	heldMu.Lock()
	defer heldMu.Unlock()
	s := held[g]
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == r {
			s = append(s[:i], s[i+1:]...)
			if len(s) == 0 {
				delete(held, g)
			} else {
				held[g] = s
			}
			return
		}
	}
	panic(fmt.Sprintf("lockrank: releasing %v which this goroutine does not hold", r))
}

// AssertHeld panics (checker enabled only) unless the calling goroutine
// holds a lock of rank r. The gate primitives use it: they stay
// lock-free themselves but require the host/gate lock around them.
func AssertHeld(r Rank) {
	if !enabled.Load() {
		return
	}
	g := gid()
	heldMu.Lock()
	defer heldMu.Unlock()
	for _, h := range held[g] {
		if h == r {
			return
		}
	}
	panic(fmt.Sprintf("lockrank: %v lock required but not held", r))
}

// Mutex is a rank-checked, contention-counted mutual exclusion lock.
// The zero value is usable (unranked, uncounted); Init wires the rank
// and the shared wait counter.
type Mutex struct {
	mu    sync.Mutex
	rank  Rank
	waits *atomic.Uint64
}

// Init sets the lock's rank and (optionally) the counter bumped once
// per contended acquisition. Call before the lock is shared.
func (m *Mutex) Init(rank Rank, waits *atomic.Uint64) {
	m.rank = rank
	m.waits = waits
}

// Lock acquires the mutex, validating rank order when the checker is
// enabled and counting the acquisition as a wait if it could not be
// satisfied immediately.
func (m *Mutex) Lock() {
	if enabled.Load() && m.rank != RankUnranked {
		checkAcquire(m.rank)
	}
	if m.mu.TryLock() {
		return
	}
	if m.waits != nil {
		m.waits.Add(1)
	}
	m.mu.Lock()
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	if enabled.Load() && m.rank != RankUnranked {
		checkRelease(m.rank)
	}
	m.mu.Unlock()
}

// RWMutex is the reader/writer variant of Mutex. Read acquisitions
// follow the same rank order as writes (a read lock still blocks a
// writer, so an inverted read is still a deadlock).
type RWMutex struct {
	mu    sync.RWMutex
	rank  Rank
	waits *atomic.Uint64
}

// Init sets the lock's rank and contended-acquisition counter.
func (m *RWMutex) Init(rank Rank, waits *atomic.Uint64) {
	m.rank = rank
	m.waits = waits
}

// Lock acquires the write lock.
func (m *RWMutex) Lock() {
	if enabled.Load() && m.rank != RankUnranked {
		checkAcquire(m.rank)
	}
	if m.mu.TryLock() {
		return
	}
	if m.waits != nil {
		m.waits.Add(1)
	}
	m.mu.Lock()
}

// Unlock releases the write lock.
func (m *RWMutex) Unlock() {
	if enabled.Load() && m.rank != RankUnranked {
		checkRelease(m.rank)
	}
	m.mu.Unlock()
}

// RLock acquires the read lock.
func (m *RWMutex) RLock() {
	if enabled.Load() && m.rank != RankUnranked {
		checkAcquire(m.rank)
	}
	if m.mu.TryRLock() {
		return
	}
	if m.waits != nil {
		m.waits.Add(1)
	}
	m.mu.RLock()
}

// RUnlock releases the read lock.
func (m *RWMutex) RUnlock() {
	if enabled.Load() && m.rank != RankUnranked {
		checkRelease(m.rank)
	}
	m.mu.RUnlock()
}
