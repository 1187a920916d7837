package migrate

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"fidelius/internal/sev"
	"fidelius/internal/telemetry"
)

// Source is the sending platform as the engine sees it. internal/core
// implements it over Fidelius and the firmware; tests implement fakes.
// The engine never touches guest plaintext: SendPages returns transport
// ciphertext produced inside the firmware.
type Source interface {
	Name() string
	MemPages() int
	// BackedGFNs lists the frames the full-copy round must ship.
	BackedGFNs() []uint64

	// StartDirty write-protects the guest and arms dirty tracking.
	StartDirty() error
	// CollectDirty drains the dirty set and re-protects it for the next
	// round.
	CollectDirty() ([]uint64, error)
	// StopDirty disarms tracking and restores full-speed mappings.
	StopDirty() error

	// SendStart opens the firmware SEND session wrapped for the target
	// platform, returning the wrapped transport keys and the nonce.
	SendStart() (sev.WrappedKeys, []byte, error)
	// SendPages produces one transport packet per gfn, in order, in one
	// firmware command (bulk page crypto). Sequence numbers advance per
	// packet, so each transmitted packet is produced exactly once and
	// retries re-send the same packet. The packets' Data stays valid
	// until the second SendPages call after this one, which may reuse its
	// buffer: the next call must seal into other bytes, since the engine
	// asks for chunk k+1 while frames of chunk k are still in flight. It
	// settles every frame of chunk k before it asks for chunk k+2, and
	// the target acks a page only after applying it. A duplicate frame
	// still in flight is re-acked on its sequence number alone, never
	// read.
	SendPages(gfns []uint64) ([]sev.Packet, error)
	// SendFinish closes the session and returns Mvm.
	SendFinish() (sev.Measurement, error)
	// Cancel aborts the session (SEND_CANCEL) and resumes the guest.
	Cancel() error

	// RunQuantum executes one scheduling quantum of the source vCPU,
	// reporting done when the guest function has returned.
	RunQuantum() (bool, error)
	// Cycles reads the source machine's clock, for downtime measurement.
	Cycles() uint64
}

// batchPages is the engine's packet-production chunk size: big enough to
// amortise the fan-out, small enough that a live guest still gets its
// quanta at a reasonable cadence.
const batchPages = 32

// Config tunes the engine.
type Config struct {
	// MaxRounds forces the final stop-and-copy round after this many
	// pre-copy rounds regardless of convergence (default 8).
	MaxRounds int
	// FinalPages converges when a round's dirty set is at most this many
	// pages (default 8).
	FinalPages int
	// MaxRetries bounds retransmissions per frame (default 4).
	MaxRetries int
	// AckTimeout is the initial ack wait; it doubles on every retry of a
	// frame (default 100ms).
	AckTimeout time.Duration
	// StopAndCopy freezes the guest before the first page is sent — the
	// offline baseline, over the same transport, for downtime
	// comparisons.
	StopAndCopy bool
	// Hub, when set, receives migration telemetry.
	Hub *telemetry.Hub
}

func (c Config) withDefaults() Config {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 8
	}
	if c.FinalPages <= 0 {
		c.FinalPages = 8
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 100 * time.Millisecond
	}
	return c
}

// Stats is the engine's account of one migration.
type Stats struct {
	// Rounds counts memory-copy rounds, including round 0 (full copy)
	// and the final stop-and-copy round.
	Rounds int
	// PagesPerRound is the page count shipped in each round.
	PagesPerRound []int
	// PagesSent is the total packets shipped (retries not included).
	PagesSent int
	// Redirtied is the number of page sends beyond the first copy of
	// each frame — the re-dirtied traffic pre-copy pays for liveness.
	Redirtied int
	// BytesOnWire is the modelled wire volume including retransmissions
	// and acks are not counted (they flow the other way).
	BytesOnWire uint64
	// Retries counts frame retransmissions.
	Retries int
	// DowntimeCycles is the source-clock span from vCPU freeze to the
	// target's final-round acknowledgement.
	DowntimeCycles uint64
	// ForcedFinal reports that the convergence heuristic gave up (dirty
	// rate outran the link) rather than converged.
	ForcedFinal bool
	// GuestDone reports that the guest function returned during the
	// migration (the vCPU had nothing left to run).
	GuestDone bool
}

// ErrAborted reports a migration torn down by either side.
var ErrAborted = errors.New("migrate: migration aborted")

type sender struct {
	src   Source
	conn  Conn
	cfg   Config
	stats *Stats

	// next is the sequence number the next posted frame gets; oldest is
	// the oldest frame posted and not yet settled; chunk is the first
	// frame of the chunk sealed last.
	next, oldest, chunk uint64
	// applied counts the frames the receiver has confirmed: it applies
	// strictly in sequence order, so an ack for frame n confirms every
	// frame up to n, lost acks of older frames included.
	applied uint64
	// frames holds the window: frame n sits in frames[n%Window] from its
	// post until it is settled, for retransmission.
	frames [Window]Frame
	// nacks holds, in the same slots, the rejections that arrived for
	// frames younger than the one being settled, so each is retried as
	// soon as its turn comes instead of after a timeout.
	nacks [Window]nack
}

// nack is the receiver's rejection of one frame, with its reason.
type nack struct {
	seq uint64
	got bool
	err string
}

// Send drives a live pre-copy migration of src over conn. On any
// transport or protocol failure the source is cancelled back to the
// running state and the error returned; the returned Stats are valid in
// both outcomes. The frozen window (downtime) spans only the final round.
//
// Note the deliberate divergence from stock SEV semantics the paper
// adopts (Section 4.3.6): SEND_START there stops guest execution for the
// whole transfer. Here execution continues through the pre-copy rounds —
// the memory key stays installed in the controller, so the running guest
// is unaffected by the firmware context sitting in the sending state —
// and only the final round stops the vCPU.
func Send(src Source, conn Conn, cfg Config) (*Stats, error) {
	s := &sender{src: src, conn: conn, cfg: cfg.withDefaults(), stats: &Stats{}}
	sp := s.cfg.Hub.OpenScope("migrate-send", 0, 0).Attr("source", src.Name())
	defer sp.Close()
	err := s.run()
	if err == nil {
		// The receiver re-acks a repeated finish until the connection
		// closes, so that a lost final ack cannot make this end give up
		// on a VM the target already activated.
		_ = conn.Close()
	} else {
		s.abort(err)
		if s.cfg.Hub.Auditing() {
			s.cfg.Hub.Audit("migrate-abort", 0, err.Error())
		}
	}
	if h := s.cfg.Hub; h.Tracing() {
		h.Emit(telemetry.KindMigrateDone, 0, 0, s.stats.DowntimeCycles,
			uint64(s.stats.Rounds), s.stats.DowntimeCycles)
	}
	return s.stats, err
}

func (s *sender) run() error {
	kwrap, nonce, err := s.src.SendStart()
	if err != nil {
		return err
	}
	// The start frame is posted, not settled: the target provisions the
	// VM while this end arms its dirty log and seals the first chunk.
	if err := s.post(&Frame{
		Type:     FrameStart,
		Name:     s.src.Name(),
		MemPages: s.src.MemPages(),
		Kwrap:    kwrap,
		Nonce:    nonce,
	}); err != nil {
		return err
	}

	if s.cfg.StopAndCopy {
		// Baseline: freeze first, ship everything once, finish.
		freeze := s.src.Cycles()
		if err := s.sendRound(0, s.src.BackedGFNs(), false); err != nil {
			return err
		}
		if err := s.finish(); err != nil {
			return err
		}
		s.stats.DowntimeCycles = s.src.Cycles() - freeze
		return nil
	}

	if err := s.src.StartDirty(); err != nil {
		return err
	}

	// Round 0: full copy with the guest running.
	if err := s.sendRound(0, s.src.BackedGFNs(), true); err != nil {
		return err
	}

	// Pre-copy rounds: ship each round's dirty set while the guest keeps
	// dirtying, until the working set converges below FinalPages — or
	// until the heuristic concludes it never will (the dirty rate matches
	// or outruns what a round can ship) and forces the final round.
	prev := -1
	for round := 1; ; round++ {
		dirty, err := s.src.CollectDirty()
		if err != nil {
			return err
		}
		final := false
		switch {
		case len(dirty) <= s.cfg.FinalPages:
			final = true
		case round >= s.cfg.MaxRounds:
			final, s.stats.ForcedFinal = true, true
		case prev >= 0 && len(dirty) >= prev:
			// The dirty set stopped shrinking: sending a round's pages
			// re-dirties at least as many. More rounds only burn wire.
			final, s.stats.ForcedFinal = true, true
		}
		prev = len(dirty)
		if !final {
			if err := s.sendRound(round, dirty, true); err != nil {
				return err
			}
			continue
		}
		// Final stop-and-copy round: the vCPU freezes (no more quanta),
		// the residual dirty set drains, and the measurement seals the
		// stream. Downtime is everything from here to the target's
		// final ack.
		freeze := s.src.Cycles()
		if err := s.src.StopDirty(); err != nil {
			return err
		}
		if err := s.sendRound(round, dirty, false); err != nil {
			return err
		}
		if err := s.finish(); err != nil {
			return err
		}
		s.stats.DowntimeCycles = s.src.Cycles() - freeze
		return nil
	}
}

func (s *sender) finish() error {
	mvm, err := s.src.SendFinish()
	if err != nil {
		return err
	}
	if err := s.post(&Frame{Type: FrameFinish, Mvm: mvm, Round: s.stats.Rounds - 1}); err != nil {
		return err
	}
	return s.drain()
}

// sendRound ships one round of pages, optionally interleaving guest
// quanta so the source stays live. Packets are produced in chunks of
// batchPages; frames still go out one per gfn, in order, so the receiver
// and the wire protocol never see the batching. Neither a chunk nor a
// round is drained at its end: before it seals the next chunk, the
// sender settles only the frames posted before the chunk it sealed last,
// whose packets that SendPages call may reuse, so the target applies the
// last chunk's window while the source seals. A live round snapshots each
// chunk before its quanta run — any write that lands after the snapshot
// is caught by the dirty log and re-sent in a later round.
func (s *sender) sendRound(round int, gfns []uint64, live bool) error {
	sp := s.cfg.Hub.OpenScope("migrate-round", 0, 0).
		Attr("round", strconv.Itoa(round)).
		Attr("pages", strconv.Itoa(len(gfns)))
	defer sp.Close()
	for rest := gfns; len(rest) > 0; {
		chunk := rest[:min(len(rest), batchPages)]
		rest = rest[len(chunk):]
		for s.oldest < s.chunk {
			if err := s.settle(); err != nil {
				return err
			}
		}
		pkts, err := s.src.SendPages(chunk)
		if err != nil {
			return err
		}
		if len(pkts) != len(chunk) {
			return fmt.Errorf("migrate: source returned %d packets for %d pages", len(pkts), len(chunk))
		}
		s.chunk = s.next
		for i, gfn := range chunk {
			if err := s.post(&Frame{Type: FramePage, Round: round, GFN: gfn, Pkt: pkts[i]}); err != nil {
				return err
			}
			s.stats.PagesSent++
			if round > 0 {
				s.stats.Redirtied++
			}
			// The source keeps running: one guest quantum per page sent.
			if live && !s.stats.GuestDone {
				done, err := s.src.RunQuantum()
				if err != nil {
					return fmt.Errorf("migrate: source guest failed mid-migration: %w", err)
				}
				s.stats.GuestDone = done
			}
		}
	}
	s.stats.Rounds++
	s.stats.PagesPerRound = append(s.stats.PagesPerRound, len(gfns))
	if h := s.cfg.Hub; h != nil {
		h.Reg.Counter("migrate.rounds").Inc()
		h.Reg.Counter("migrate.pages_sent").Add(uint64(len(gfns)))
		if h.Tracing() {
			h.Emit(telemetry.KindMigrateRound, 0, 0, 0, uint64(round), uint64(len(gfns)))
		}
	}
	return nil
}

// post sends f as the next frame without waiting for its ack, after
// settling the oldest frame if the window is full. The frame is copied
// into its window slot, where a retransmission finds it.
func (s *sender) post(f *Frame) error {
	if s.next-s.oldest == Window {
		if err := s.settle(); err != nil {
			return err
		}
	}
	slot := &s.frames[s.next%Window]
	*slot = *f
	slot.Seq = s.next
	s.next++
	return s.transmit(slot)
}

func (s *sender) transmit(f *Frame) error {
	if err := s.conn.Send(f); err != nil {
		return err
	}
	s.stats.BytesOnWire += WireSize(f)
	return nil
}

// drain settles every frame in flight.
func (s *sender) drain() error {
	for s.oldest < s.next {
		if err := s.settle(); err != nil {
			return err
		}
	}
	return nil
}

// settle waits for the oldest frame's ack, with bounded retries and
// exponential backoff. A receiver nack (bad tag after in-flight
// tampering, say) retries the same frame; retry exhaustion is the abort
// trigger.
func (s *sender) settle() error {
	seq := s.oldest
	f := &s.frames[seq%Window]
	timeout := s.cfg.AckTimeout
	for attempt := 0; ; attempt++ {
		rejected, err := s.waitAck(seq, timeout)
		var lastErr string
		switch {
		case err == nil && rejected == "":
			s.oldest++
			return nil
		case err == nil:
			lastErr = rejected
		case errors.Is(err, ErrTimeout):
			lastErr = "ack timeout"
		default:
			return err
		}
		if attempt == s.cfg.MaxRetries {
			return fmt.Errorf("%w: %v frame seq %d undeliverable after %d retries: %s",
				ErrAborted, f.Type, seq, s.cfg.MaxRetries, lastErr)
		}
		s.stats.Retries++
		if err := s.transmit(f); err != nil {
			return err
		}
		timeout *= 2
	}
}

// waitAck waits up to timeout for the receiver's answer on frame seq: an
// ack of it or of any younger frame (nil error, empty rejection), or its
// nack (the reason). A nack kept from an earlier wait answers at once.
// Nacks for younger frames in flight are kept for their own settle;
// answers about settled frames (a duplicate's re-ack) only confirm.
func (s *sender) waitAck(seq uint64, timeout time.Duration) (string, error) {
	if s.applied > seq {
		return "", nil
	}
	if n := &s.nacks[seq%Window]; n.got && n.seq == seq {
		n.got = false
		return n.err, nil
	}
	deadline := time.Now().Add(timeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return "", ErrTimeout
		}
		f, err := s.conn.Recv(remain)
		if err != nil {
			return "", err
		}
		switch {
		case f.Type == FrameAbort:
			return "", fmt.Errorf("%w by receiver: %s", ErrAborted, f.Err)
		case f.Type != FrameAck || f.AckSeq < seq || f.AckSeq >= s.next:
			// Stale, or not an answer to anything in flight.
		case f.OK:
			s.applied = max(s.applied, f.AckSeq+1)
			return "", nil
		case f.AckSeq == seq:
			return f.Err, nil
		default:
			s.nacks[f.AckSeq%Window] = nack{seq: f.AckSeq, got: true, err: f.Err}
		}
	}
}

// abort tears the migration down after a failure: best-effort abort frame
// to the peer, then SEND_CANCEL and dirty-log teardown so the source VM
// is intact and runnable.
func (s *sender) abort(cause error) {
	_ = s.conn.Send(&Frame{Type: FrameAbort, Seq: s.next, Err: cause.Error()})
	_ = s.src.StopDirty()
	_ = s.src.Cancel()
}
