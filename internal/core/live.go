package core

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"io"

	"fidelius/internal/hw"
	"fidelius/internal/migrate"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

// Live migration glue: the internal/migrate engine drives the pre-copy
// protocol against these adapters, which translate its Source/Target
// operations into firmware commands (under the trusted context), NPT
// dirty-log operations (through the gatekeeper seam) and vCPU quanta.
//
// This is the deliberate retrofit beyond stock SEV that the paper stops
// short of (Section 4.3.6 supports only stop-and-copy): the guest's
// memory encryption runs off the ASID-installed Kvek in the controller,
// so the firmware context sitting in the sending state does not stop
// the vCPU — Fidelius keeps scheduling it and tracks its writes in the
// NPT dirty log until the final round.

// liveSource adapts one protected VM on this platform to migrate.Source.
type liveSource struct {
	f         *Fidelius
	d         *xen.Domain
	st        *VMState
	targetPub *ecdh.PublicKey
	slab      *sendSlab
}

// sendSlab is what SEND_UPDATE seals a migration's chunks into: two
// halves, used in turn, each with the packets' bytes, the packets and the
// chunk's frames. A SendPages call overwrites the half the call before
// the last one used, so the engine can seal chunk k+1 while the target
// still applies chunk k (the migrate.Source contract). A slab is
// allocated once, each half grows to the engine's largest chunk, and it
// is then reused.
type sendSlab struct {
	halves [2]slabHalf
	turn   int
}

// slabHalf holds one chunk: its packets' bytes, packets and frames.
type slabHalf struct {
	data []byte
	pkts []sev.Packet
	pfns []hw.PFN
}

// takeSlab hands a live migration a slab no other migration holds: a
// free one when there is one, else a fresh one.
func (f *Fidelius) takeSlab() *sendSlab {
	f.slabMu.Lock()
	defer f.slabMu.Unlock()
	n := len(f.slabs)
	if n == 0 {
		return new(sendSlab)
	}
	s := f.slabs[n-1]
	f.slabs[n-1] = nil
	f.slabs = f.slabs[:n-1]
	return s
}

// returnSlab puts a slab back on the free list. Only a migration whose
// every frame was acked may return its slab: the target acks a page
// after reading it, so no packet in the slab is still in flight.
func (f *Fidelius) returnSlab(s *sendSlab) {
	f.slabMu.Lock()
	f.slabs = append(f.slabs, s)
	f.slabMu.Unlock()
}

func (s *liveSource) Name() string         { return s.d.Name }
func (s *liveSource) MemPages() int        { return s.d.MemPages }
func (s *liveSource) BackedGFNs() []uint64 { return s.d.BackedGFNs() }

func (s *liveSource) StartDirty() error {
	return s.f.X.StartDirtyLog(s.d)
}

func (s *liveSource) CollectDirty() ([]uint64, error) {
	return s.f.X.CollectDirty(s.d)
}

func (s *liveSource) StopDirty() error {
	if s.d.Dirty == nil || !s.d.Dirty.Enabled() {
		return nil
	}
	return s.f.X.StopDirtyLog(s.d)
}

// enter opens one SEND step: the trusted context, under the gate lock.
// The trusted-context flag is shared-CPU state, which the gate lock
// guards, and the steps of a migration interleave with its guest's
// quanta and with whatever else runs on this platform, other migrations
// out of it included. No SEND step calls back into the hypervisor, so
// unlike most entry points it can hold the lock throughout.
func (s *liveSource) enter() func() {
	s.f.M.Host.Lock()
	leave := s.f.enterTrusted()
	return func() {
		leave()
		s.f.M.Host.Unlock()
	}
}

func (s *liveSource) SendStart() (sev.WrappedKeys, []byte, error) {
	defer s.enter()()
	nonce := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return sev.WrappedKeys{}, nil, err
	}
	kwrap, err := s.f.M.FW.SendStart(s.st.Handle, s.targetPub, nonce)
	if err != nil {
		return sev.WrappedKeys{}, nil, err
	}
	return kwrap, nonce, nil
}

// SendPages is one SEND_UPDATE fan-out over the firmware's worker pool
// per round chunk, with packets (and sequence numbers) in gfn order. The
// packets are sealed into one half of the source's slab, which the call
// after next overwrites (the migrate.Source contract).
func (s *liveSource) SendPages(gfns []uint64) ([]sev.Packet, error) {
	defer s.enter()()
	b := &s.slab.halves[s.slab.turn]
	s.slab.turn ^= 1
	b.pfns = b.pfns[:0]
	for _, gfn := range gfns {
		pfn, ok := s.d.GPAFrame(gfn)
		if !ok {
			return nil, fmt.Errorf("core: live migration gfn %d unbacked", gfn)
		}
		b.pfns = append(b.pfns, pfn)
	}
	n := len(gfns) * hw.PageSize
	if cap(b.data) < n {
		b.data = make([]byte, n)
	}
	b.data = b.data[:n]
	pkts, err := s.f.M.FW.SendUpdatePages(s.st.Handle, b.pfns, b.data, b.pkts)
	if err != nil {
		return nil, err
	}
	b.pkts = pkts
	return pkts, nil
}

func (s *liveSource) SendFinish() (sev.Measurement, error) {
	defer s.enter()()
	return s.f.M.FW.SendFinish(s.st.Handle)
}

func (s *liveSource) Cancel() error {
	defer s.enter()()
	return s.f.M.FW.SendCancel(s.st.Handle)
}

func (s *liveSource) RunQuantum() (bool, error) {
	return s.f.X.RunOnce(s.d)
}

func (s *liveSource) Cycles() uint64 {
	return s.f.M.Ctl.Cycles.Total()
}

// MigrateOutLive migrates a running protected VM to the platform behind
// conn using iterative pre-copy: the vCPU keeps executing between page
// sends while the NPT dirty log captures its writes, and only the final
// round stops it. On failure the engine cancels the SEND session and
// tears down the dirty log, leaving the source VM running and intact.
//
// cfg.StopAndCopy selects the offline baseline over the same transport,
// for downtime comparisons. A nil cfg.Hub defaults to this machine's hub.
//
// The packets are sealed into a slab taken from this platform's free
// list. A migration that succeeded returns it there for the next one; an
// aborted migration drops it, since a frame the target never acked may
// still be in flight on conn, holding the slab's bytes.
func (f *Fidelius) MigrateOutLive(d *xen.Domain, targetPub *ecdh.PublicKey, conn migrate.Conn, cfg migrate.Config) (*migrate.Stats, error) {
	st, _ := f.lookupVM(d.ID)
	if st == nil {
		return nil, fmt.Errorf("core: domain %d is not a Fidelius-protected VM", d.ID)
	}
	if cfg.Hub == nil {
		cfg.Hub = f.hub()
	}
	s := &liveSource{f: f, d: d, st: st, targetPub: targetPub, slab: f.takeSlab()}
	stats, err := migrate.Send(s, conn, cfg)
	if err == nil {
		f.returnSlab(s.slab)
	}
	return stats, err
}

// liveTarget adapts this platform to migrate.Target: the VM is
// provisioned on FrameStart, pages land via RECEIVE_UPDATE, and the final
// measurement check admits it.
type liveTarget struct {
	f         *Fidelius
	originPub *ecdh.PublicKey
	p         *provisional // the VM being received, until admitted
	d         *xen.Domain  // the admitted VM
	// pkt is ReceivePage's one-packet batch.
	pkt [1]sev.Packet
}

func (t *liveTarget) ReceiveStart(name string, memPages int, kwrap sev.WrappedKeys, nonce []byte) error {
	defer t.f.enterTrusted()()
	if t.p != nil || t.d != nil {
		return fmt.Errorf("core: migration already started")
	}
	p, err := t.f.provision(name, memPages, func() (sev.Handle, error) {
		return t.f.M.FW.ReceiveStart(kwrap, t.originPub, nonce)
	})
	if err != nil {
		return err
	}
	t.p = p
	return nil
}

func (t *liveTarget) ReceivePage(gfn uint64, pkt sev.Packet) error {
	defer t.f.enterTrusted()()
	if t.p == nil {
		return fmt.Errorf("core: page before migration start")
	}
	// The receiver applies frames one at a time, in sequence order, even
	// those the window delivered ahead of a gap, so each page is a
	// one-page RECEIVE_UPDATE.
	t.pkt[0] = pkt
	return t.p.receive(gfn, t.pkt[:])
}

func (t *liveTarget) ReceiveFinish(mvm sev.Measurement) error {
	defer t.f.enterTrusted()()
	if t.p == nil {
		return fmt.Errorf("core: finish before migration start")
	}
	if err := t.f.M.FW.ReceiveFinish(t.p.h, mvm); err != nil {
		return err
	}
	if err := t.p.admit(); err != nil {
		return err
	}
	t.d, t.p = t.p.d, nil
	return nil
}

// Abort scrubs the half-received VM, if there is one. A VM already
// admitted is shut down instead: the sender aborted after the finish,
// having never seen its ack, and resumed the VM on the source.
func (t *liveTarget) Abort() error {
	if t.d != nil {
		d := t.d
		t.d = nil
		return t.f.ShutdownVM(d)
	}
	defer t.f.enterTrusted()()
	if t.p == nil {
		return nil
	}
	err := t.p.scrub()
	t.p = nil
	return err
}

// MigrateInLive runs the target side of a live migration arriving on
// conn from the platform identified by originPub, returning the
// activated domain. On abort (either side) any partially-received state
// is scrubbed.
func (f *Fidelius) MigrateInLive(conn migrate.Conn, originPub *ecdh.PublicKey) (*xen.Domain, error) {
	t := &liveTarget{f: f, originPub: originPub}
	if err := migrate.Receive(t, conn); err != nil {
		return nil, err
	}
	return t.d, nil
}
