package telemetry

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// Security audit ledger: an append-only, hash-chained record of the
// platform's security-relevant decisions — gatekeeper denials,
// integrity-tag failures, NPT remap and ASID-reuse detections,
// attestation state transitions. SEVered and "Insecure Until Proven
// Updated" both succeed against real SEV partly because the victim has no
// forensic record of hypervisor-side mappings and firmware state; the
// ledger is the defensive counterpart: each record's hash covers the
// previous record's hash, so a hypervisor that exfiltrates and then edits
// the trail cannot produce a consistent chain, and a holder of the live
// head hash detects truncation as well as tampering.
//
// Hash-chain invariant: Hash_i = SHA-256(Prev_i ‖ Seq_i ‖ TS_i ‖ VM_i ‖
// len(Class_i) ‖ Class_i ‖ len(Detail_i) ‖ Detail_i) with Prev_0 = 0 and
// Prev_i = Hash_{i-1}; the ledger head equals the last record's hash.
// Length prefixes make the class/detail boundary unambiguous.
//
// Lock order: the ledger mutex is a leaf — Append and Records never call
// out while holding it, so it can be taken under any platform lock (a
// domain lock, the gate lock, a shared-structure shard) without ordering
// concerns.

// Record is one audit ledger entry.
type Record struct {
	Seq    uint64   `json:"seq"`
	TS     uint64   `json:"ts"` // cycle timestamp at append
	Class  string   `json:"class"`
	VM     uint32   `json:"vm"`
	Detail string   `json:"detail"`
	Prev   [32]byte `json:"prev"`
	Hash   [32]byte `json:"hash"`
}

func (r *Record) computeHash() [32]byte {
	h := sha256.New()
	h.Write(r.Prev[:])
	var num [8]byte
	binary.LittleEndian.PutUint64(num[:], r.Seq)
	h.Write(num[:])
	binary.LittleEndian.PutUint64(num[:], r.TS)
	h.Write(num[:])
	binary.LittleEndian.PutUint64(num[:], uint64(r.VM))
	h.Write(num[:])
	binary.LittleEndian.PutUint64(num[:], uint64(len(r.Class)))
	h.Write(num[:])
	h.Write([]byte(r.Class))
	binary.LittleEndian.PutUint64(num[:], uint64(len(r.Detail)))
	h.Write(num[:])
	h.Write([]byte(r.Detail))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashRecord recomputes the hash a record should carry given its fields
// and Prev link. Exposed for external verifiers (and for the tamper
// attack simulation, whose adversary re-hashes edited records).
func HashRecord(r Record) [32]byte { return r.computeHash() }

// Ledger is the append-only chain. Unlike the event tracer it never
// drops: security records are few and each one matters.
type Ledger struct {
	now func() uint64

	mu   sync.Mutex
	recs []Record
	head [32]byte
}

// NewLedger returns an empty ledger stamping records with now (nil for an
// always-zero clock).
func NewLedger(now func() uint64) *Ledger {
	return &Ledger{now: now}
}

// Append adds one record to the chain and returns it.
func (l *Ledger) Append(class string, vm uint32, detail string) Record {
	if l == nil {
		return Record{}
	}
	var ts uint64
	if l.now != nil {
		ts = l.now()
	}
	l.mu.Lock()
	r := Record{
		Seq:    uint64(len(l.recs)),
		TS:     ts,
		Class:  class,
		VM:     vm,
		Detail: detail,
		Prev:   l.head,
	}
	r.Hash = r.computeHash()
	l.recs = append(l.recs, r)
	l.head = r.Hash
	l.mu.Unlock()
	return r
}

// Len reports the number of records.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Records returns a copy of the chain, oldest first.
func (l *Ledger) Records() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record{}, l.recs...)
}

// Head returns the current chain head (the last record's hash; zero when
// empty). A verifier holding the head detects truncation of an exported
// copy, not just in-place tampering.
func (l *Ledger) Head() [32]byte {
	if l == nil {
		return [32]byte{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// VerifyChain checks an exported copy of the ledger against the expected
// head hash: the genesis record must chain from zero, sequence numbers
// must be contiguous from zero, every record's hash must recompute, each
// Prev must equal the previous Hash, and the final hash must equal head.
// Any mutation, reorder, insertion, deletion or truncation fails.
func VerifyChain(recs []Record, head [32]byte) error {
	var prev [32]byte
	for i := range recs {
		r := &recs[i]
		if r.Seq != uint64(i) {
			return fmt.Errorf("telemetry: ledger record %d has seq %d (chain spliced)", i, r.Seq)
		}
		if r.Prev != prev {
			return fmt.Errorf("telemetry: ledger record %d breaks the chain (prev mismatch)", i)
		}
		if got := r.computeHash(); got != r.Hash {
			return fmt.Errorf("telemetry: ledger record %d tampered (hash mismatch)", i)
		}
		prev = r.Hash
	}
	if prev != head {
		return fmt.Errorf("telemetry: ledger head mismatch after %d records (truncated or forked)", len(recs))
	}
	return nil
}
