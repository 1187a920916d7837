// Package migrate implements iterative pre-copy live migration for
// protected VMs over the SEV SEND*/RECEIVE* transport: dirty-page
// tracking on the source keeps the vCPU running while memory streams as
// ciphertext packets, rounds iterate until the writable working set is
// small enough (or provably never will be), and a final stop-and-copy
// round ships the residue before the measurement is verified on the
// target.
//
// The wire protocol is a sliding-window ARQ: every frame carries a
// transport sequence number, the sender keeps up to Window frames in
// flight without waiting, and the receiver applies frames strictly in
// sequence order and acknowledges each one it applies. A frame that
// arrives ahead of a gap is held until the gap fills, so a lost frame
// costs one retransmission. The sender settles frames oldest first,
// retrying each with exponential backoff until a bounded retry budget is
// exhausted — at which point the migration aborts cleanly and the source
// VM resumes. Guest data only ever crosses a Conn inside sev.Packet
// ciphertext; the transport layer never sees plaintext.
//
// The sender waits for acks only when the window is full, before it
// seals a chunk over packets the target may still need, and at the
// finish: it never drains at a chunk or round boundary. So the source
// seals chunk k+1 while the target still applies chunk k, and neither
// end idles while the other works. Each end's work keeps its order, so
// the waits move only host time, never a modelled cycle.
package migrate

import (
	"errors"
	"sync"
	"time"

	"fidelius/internal/cycles"
	"fidelius/internal/sev"
)

// FrameType discriminates protocol frames.
type FrameType uint8

// Protocol frame types.
const (
	// FrameStart opens a migration: guest geometry plus the wrapped
	// transport keys from SEND_START.
	FrameStart FrameType = iota + 1
	// FramePage carries one SEND_UPDATE ciphertext packet for a GFN.
	FramePage
	// FrameFinish carries the sender's measurement (Mvm); a successful
	// ack means the target verified and activated.
	FrameFinish
	// FrameAbort tears the migration down (either direction).
	FrameAbort
	// FrameAck acknowledges (OK) or rejects (!OK) the frame with AckSeq.
	FrameAck
)

func (t FrameType) String() string {
	switch t {
	case FrameStart:
		return "start"
	case FramePage:
		return "page"
	case FrameFinish:
		return "finish"
	case FrameAbort:
		return "abort"
	case FrameAck:
		return "ack"
	}
	return "frame(?)"
}

// Frame is one protocol message. Only the fields for its Type are
// meaningful.
type Frame struct {
	Type FrameType
	// Seq is the transport sequence number (sender-assigned, starting at
	// 0); acks echo it in AckSeq instead.
	Seq   uint64
	Round int

	// FrameStart fields.
	Name     string
	MemPages int
	Kwrap    sev.WrappedKeys
	Nonce    []byte

	// FramePage fields.
	GFN uint64
	Pkt sev.Packet

	// FrameFinish fields.
	Mvm sev.Measurement

	// FrameAck fields.
	AckSeq uint64
	OK     bool
	Err    string
}

// WireSize models the serialized footprint of a frame in bytes, for the
// bandwidth model and the bytes-on-wire accounting.
func WireSize(f *Frame) uint64 {
	n := uint64(32) // type, seq, round, geometry, lengths
	n += uint64(len(f.Name) + len(f.Nonce) + len(f.Kwrap.Ciphertext) + len(f.Kwrap.Nonce))
	if f.Type == FramePage {
		n += 8 + uint64(len(f.Pkt.Data)) + uint64(len(f.Pkt.Tag)) + 8
	}
	if f.Type == FrameFinish {
		n += uint64(len(f.Mvm))
	}
	return n
}

// Transport errors.
var (
	ErrClosed  = errors.New("migrate: connection closed")
	ErrTimeout = errors.New("migrate: receive timed out")
)

// Window is the number of frames the sender keeps in flight: it posts
// frames without waiting until Window are unacknowledged, and the
// receiver holds a frame that arrives at most Window-1 ahead of the next
// one it expects. It is half a chunk (batchPages): the target applies
// half a chunk in about the time the source seals the next one, so the
// frames still in flight when a chunk's last frame is posted keep the
// target busy while the source seals.
const Window = 16

// Conn is one endpoint of a bidirectional migration channel.
//
// A transport must buffer at least 2*Window frames per direction. The
// sender posts up to Window frames between reads of its acks, so a
// shallower channel can fill in both directions at once, with each end
// blocked sending to the other. Pipe keeps those 2*Window slots small by
// queueing page frames and positive acks as compact values (qframe).
type Conn interface {
	// Send enqueues a frame to the peer. The frame is copied (the packet
	// bytes its slices point to are not), so the caller may reuse *f as
	// soon as Send returns.
	Send(f *Frame) error
	// Recv returns the next frame from the peer. A timeout <= 0 blocks
	// until a frame arrives or the connection closes; otherwise ErrTimeout
	// is returned when the wait expires (the sender's ack wait, which is
	// what turns a lost frame into a retry). An endpoint has one reader:
	// Recv is not called concurrently on the same endpoint, and the frame
	// it returns is valid only until that reader's next Recv.
	Recv(timeout time.Duration) (*Frame, error)
	// Close tears the channel down in both directions.
	Close() error
}

// pipeEnd carries frames by value, so posting one allocates nothing and
// a sender's later reuse of its frame cannot reach a copy still queued.
// The queue holds each frame as a qframe, so the 2*Window slots of both
// directions cost less than whole frames would.
type pipeEnd struct {
	send chan<- qframe
	recv <-chan qframe
	done chan struct{}
	once *sync.Once

	// in is the frame the last Recv returned.
	in Frame

	// timer times the waits of this end's one reader (a migration
	// endpoint is read by one goroutine, the engine or the receiver). It
	// is kept stopped with its channel drained between waits, as the
	// pre-Go 1.23 timer rules of this module require before a Reset.
	timer *time.Timer
}

// qframe is a frame as a pipe queues it. A frame that carries none of
// the start, finish or error fields — every page frame and every
// positive ack — travels as its remaining fields, about 112 bytes. Any
// other frame travels as full, a pointer to a copy: there are a handful
// per migration.
type qframe struct {
	full             *Frame
	typ              FrameType
	ok               bool
	round            int
	seq, gfn, ackSeq uint64
	pkt              sev.Packet
}

// queue packs f for the pipe; unqueue restores it, field for field.
func queue(f *Frame) qframe {
	if f.Name != "" || f.MemPages != 0 || f.Kwrap.Ciphertext != nil ||
		f.Kwrap.Nonce != [12]byte{} || f.Nonce != nil || f.Mvm != (sev.Measurement{}) || f.Err != "" {
		c := *f
		return qframe{full: &c}
	}
	return qframe{typ: f.Type, ok: f.OK, round: f.Round, seq: f.Seq, gfn: f.GFN, ackSeq: f.AckSeq, pkt: f.Pkt}
}

func (q *qframe) unqueue(f *Frame) {
	if q.full != nil {
		*f = *q.full
		return
	}
	*f = Frame{Type: q.typ, OK: q.ok, Round: q.round, Seq: q.seq, GFN: q.gfn, AckSeq: q.ackSeq, Pkt: q.pkt}
}

// Pipe returns two connected in-memory endpoints with the given per
// direction buffer, raised to the 2*Window frames the window needs (see
// Conn). Closing either end closes both.
func Pipe(buf int) (Conn, Conn) {
	buf = max(buf, 2*Window)
	ab := make(chan qframe, buf)
	ba := make(chan qframe, buf)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &pipeEnd{send: ab, recv: ba, done: done, once: once}
	b := &pipeEnd{send: ba, recv: ab, done: done, once: once}
	return a, b
}

func (p *pipeEnd) Send(f *Frame) error {
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	select {
	case p.send <- queue(f):
		return nil
	case <-p.done:
		return ErrClosed
	}
}

func (p *pipeEnd) Recv(timeout time.Duration) (*Frame, error) {
	var q qframe
	if timeout <= 0 {
		select {
		case q = <-p.recv:
			return p.take(&q), nil
		case <-p.done:
			return p.drain()
		}
	}
	if p.timer == nil {
		p.timer = time.NewTimer(timeout)
	} else {
		p.timer.Reset(timeout)
	}
	select {
	case q = <-p.recv:
		p.stopTimer()
		return p.take(&q), nil
	case <-p.done:
		p.stopTimer()
		return p.drain()
	case <-p.timer.C:
		return nil, ErrTimeout // fired and drained: ready for the next Reset
	}
}

// take unpacks a queued frame into in and returns it.
func (p *pipeEnd) take(q *qframe) *Frame {
	q.unqueue(&p.in)
	return &p.in
}

// drain returns a frame that raced with the close, else ErrClosed.
func (p *pipeEnd) drain() (*Frame, error) {
	select {
	case q := <-p.recv:
		return p.take(&q), nil
	default:
		return nil, ErrClosed
	}
}

// stopTimer stops the wait timer of a Recv that did not time out. If it
// fired regardless, its tick is drained, so the next Recv cannot take it
// for its own timeout.
func (p *pipeEnd) stopTimer() {
	if !p.timer.Stop() {
		<-p.timer.C
	}
}

func (p *pipeEnd) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// Link wraps one endpoint with a bandwidth/latency cost model: every Send
// charges this side's cycle counter the link latency plus a per-byte
// serialization cost, tying wire time into the platform's deterministic
// clock. Each endpoint wraps with its own machine's counter, so the model
// stays single-writer per counter.
type Link struct {
	Conn
	// Counter is the sending machine's cycle counter.
	Counter *cycles.Counter
	// CyclesPerByte models bandwidth (cycles of wire time per byte).
	CyclesPerByte uint64
	// LatencyCycles models fixed per-frame latency.
	LatencyCycles uint64
}

// DefaultCyclesPerByte approximates a 10 Gb/s link on the paper's 3.4 GHz
// clock: ~2.7 cycles per byte on the wire.
const DefaultCyclesPerByte = 3

// DefaultLatencyCycles approximates a ~10 µs datacenter RTT share per
// frame at 3.4 GHz.
const DefaultLatencyCycles = 34_000

func (l *Link) Send(f *Frame) error {
	if l.Counter != nil {
		l.Counter.Charge(l.LatencyCycles + WireSize(f)*l.CyclesPerByte)
	}
	return l.Conn.Send(f)
}

// Faulty wraps an endpoint with deterministic fault injection on Send:
// every DropEvery-th frame is silently discarded, every CorruptEvery-th
// page frame is delivered with a flipped ciphertext byte, and every
// DupEvery-th frame is delivered twice. Counters are 1-based; zero
// disables that fault. Corruption copies the frame so the sender's retry
// of the original is unaffected — exactly a man-in-the-middle, not a
// sender-side bug.
type Faulty struct {
	Conn
	DropEvery    int
	CorruptEvery int
	DupEvery     int
	sent         int
}

func (f *Faulty) Send(fr *Frame) error {
	f.sent++
	if f.DropEvery > 0 && f.sent%f.DropEvery == 0 {
		return nil // eaten by the network
	}
	if f.CorruptEvery > 0 && f.sent%f.CorruptEvery == 0 {
		fr = corruptCopy(fr)
	}
	if err := f.Conn.Send(fr); err != nil {
		return err
	}
	if f.DupEvery > 0 && f.sent%f.DupEvery == 0 {
		return f.Conn.Send(fr)
	}
	return nil
}

func corruptCopy(fr *Frame) *Frame {
	c := *fr
	if len(fr.Pkt.Data) > 0 {
		c.Pkt.Data = append([]byte{}, fr.Pkt.Data...)
		c.Pkt.Data[0] ^= 0xFF
	} else if len(fr.Nonce) > 0 {
		c.Nonce = append([]byte{}, fr.Nonce...)
		c.Nonce[0] ^= 0xFF
	} else {
		c.Mvm[0] ^= 0xFF
	}
	return &c
}
