package migrate

import (
	"errors"
	"fmt"

	"fidelius/internal/sev"
)

// Target is the receiving platform as the engine sees it: the four
// RECEIVE-side operations, applied strictly in sequence order. A nil
// error from ReceiveFinish means the measurement verified and the VM
// activated on the target.
type Target interface {
	ReceiveStart(name string, memPages int, kwrap sev.WrappedKeys, nonce []byte) error
	ReceivePage(gfn uint64, pkt sev.Packet) error
	ReceiveFinish(mvm sev.Measurement) error
	// Abort scrubs any partially-received state, and tears down a VM
	// ReceiveFinish activated if the sender aborts after all.
	Abort() error
}

// Receive runs the target side of a migration until the sender closes
// the connection after FrameFinish was applied, the sender aborts, or
// the connection dies. It is the ARQ peer of Send: frames apply strictly
// in sequence order. A duplicate (a retry whose original ack was lost) is
// re-acked without re-applying. A frame that arrives ahead of a gap but
// within the window is held, unacked, and applied once the gap fills; one
// beyond the window is nacked. An apply failure (a tampered packet
// failing its tag or the final measurement check) nacks without
// advancing, so a clean retransmission of the same sequence number can
// still succeed.
//
// Once FrameFinish is applied the VM is active here, but the sender
// learns so only from the ack. So Receive stays to re-ack a repeated
// finish until the sender closes the connection, and it returns nil only
// then. An abort that arrives after the finish tears the activated VM
// down again through Target.Abort, since the sender resumed its own copy.
func Receive(tgt Target, conn Conn) error {
	r := &receiver{tgt: tgt, conn: conn}
	for {
		f, err := conn.Recv(0)
		if err != nil {
			return r.end(fmt.Errorf("migrate: receive: %w", err))
		}
		switch {
		case f.Type == FrameAbort:
			_ = tgt.Abort()
			return fmt.Errorf("%w by sender: %s", ErrAborted, f.Err)
		case f.Type == FrameAck:
			continue // not ours to handle; ignore
		case f.Seq < r.expected:
			// Duplicate of an already-applied frame: its ack was lost or
			// the network duplicated it. Re-ack, do not re-apply — the
			// firmware stream must see each packet exactly once.
			err = r.ack(f.Seq, nil)
		case f.Seq >= r.expected+Window:
			// No sender in step with this end posts that far ahead.
			err = r.ack(f.Seq, fmt.Errorf("sequence %d beyond the window at %d", f.Seq, r.expected))
		case f.Seq > r.expected:
			// Ahead of a gap: an earlier frame is still missing, and
			// applying out of order would desequence the firmware stream.
			// Hold it for when the sender's retry fills the gap.
			if !r.finished {
				if r.held == nil {
					r.held = new([Window]Frame)
				}
				r.held[f.Seq%Window] = *f
			}
			continue
		default:
			err = r.applyInOrder(f)
		}
		if err != nil {
			return r.end(err)
		}
	}
}

// end finishes Receive on a transport error: the close the sender makes
// once its finish was acked is success (a re-ack can find the connection
// already closed), anything else scrubs the target.
func (r *receiver) end(err error) error {
	if r.finished && errors.Is(err, ErrClosed) {
		return nil
	}
	_ = r.tgt.Abort()
	return err
}

// receiver is Receive's state: the next sequence number to apply and the
// frames held ahead of it.
type receiver struct {
	tgt      Target
	conn     Conn
	expected uint64
	finished bool
	// held[n%Window] holds frame n while it waits for a gap before it to
	// fill; a zero Type marks an empty slot. The ring is allocated on the
	// first hold: a migration over a lossless, ordered link never holds.
	held *[Window]Frame
	// reply is the ack frame, rewritten for every ack (Send copies it).
	reply Frame
}

// applyInOrder applies f, the frame the stream expects next, and then
// every held frame it unblocks.
func (r *receiver) applyInOrder(f *Frame) error {
	var next Frame
	for {
		applyErr := apply(r.tgt, f)
		if err := r.ack(f.Seq, applyErr); err != nil {
			return err
		}
		if applyErr != nil {
			// The frame was delivered but rejected (bad tag, bad
			// measurement, bad geometry). Do not advance: the sender may
			// retransmit an uncorrupted copy under the same sequence
			// number. Terminal errors end here when the sender's retry
			// budget runs out and it sends FrameAbort.
			return nil
		}
		r.expected++
		if f.Type == FrameFinish {
			r.finished = true
			return nil
		}
		if r.held == nil {
			return nil
		}
		h := &r.held[r.expected%Window]
		if h.Type == 0 || h.Seq != r.expected {
			return nil
		}
		next = *h
		h.Type = 0
		f = &next
	}
}

func apply(tgt Target, f *Frame) error {
	switch f.Type {
	case FrameStart:
		return tgt.ReceiveStart(f.Name, f.MemPages, f.Kwrap, f.Nonce)
	case FramePage:
		return tgt.ReceivePage(f.GFN, f.Pkt)
	case FrameFinish:
		return tgt.ReceiveFinish(f.Mvm)
	}
	return fmt.Errorf("migrate: unexpected frame type %v", f.Type)
}

func (r *receiver) ack(seq uint64, applyErr error) error {
	r.reply = Frame{Type: FrameAck, AckSeq: seq, OK: applyErr == nil}
	if applyErr != nil {
		r.reply.Err = applyErr.Error()
	}
	if err := r.conn.Send(&r.reply); err != nil {
		if errors.Is(err, ErrClosed) {
			return fmt.Errorf("migrate: receive: %w", err)
		}
		return err
	}
	return nil
}
