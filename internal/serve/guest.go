package serve

import (
	"errors"
	"fmt"

	"fidelius/internal/core"
	"fidelius/internal/cycles"
	"fidelius/internal/hw"
	"fidelius/internal/kv"
	"fidelius/internal/xen"
)

// storeLBA is where the kv log region starts on each tenant disk.
const storeLBA = 8

// Guest compaction policy: between doorbell batches the guest compacts
// once at least compactGarbageFrac of the log is dead records and the
// log has grown past half of a half's capacity (compacting a short log
// reclaims little and still pays the rewrite).
const compactGarbageFrac = 0.5

// stagedResp is one response held back until the batch's group commit
// decides its final status.
type stagedResp struct {
	id     uint64
	op     uint32
	status uint32
	val    []byte
	muted  bool // true when the op rode the batch's kv.Apply
}

// overlayVal is the batch-local view of a key mutated earlier in the
// same batch: gets must observe it (client sessions are FIFO, so a get
// injected after a put of the same key expects the new value) even
// though the store index is only updated at the group commit.
type overlayVal struct {
	val  []byte
	dead bool
}

// guestMain is the tenant VM's kernel: it opens the kv store over the
// protected block path (Kblk read from its own encrypted kernel image),
// then serves ring batches until the front door posts the stop flag.
//
// The loop is a doorbell poll: kicking the doorbell port traps to the
// host, which fills request frames *while the vCPU is parked in the
// VMEXIT*; on resume the guest reads the whole batch, stages every
// put/delete into one kv group commit, answers gets against the staged
// overlay (preserving per-client FIFO semantics), applies the commit,
// posts all responses and kicks the completion port. An empty batch
// without the stop flag halts for a quantum — burning simulated cycles,
// which is exactly how open-loop arrivals become due.
//
// The block device is wrapped in a write coalescer, so the group
// commit's record span reaches blkio.go as one sequential request: a
// batch of N mutations costs two disk writes (terminator + span) and at
// most two seeks, where the old per-op path paid 2N of each.
//
// Two maintenance mechanisms ride the batch loop. A read cache holds
// the session-*encrypted* bytes of hot values, so a repeated get skips
// both the index copy and the session-cipher recharge; entries are
// invalidated when a mutation on the key is staged and repopulated only
// from committed store state, never from in-flight request bytes — a
// failed commit therefore cannot plant a stale entry. And between
// batches the guest compacts the log once the garbage ratio crosses
// compactGarbageFrac (or immediately, when a commit reports ErrFull),
// so a long-lived tenant's write volume can exceed the store region
// without ever surfacing "store full" to its clients.
func (s *Service) guestMain(t *tenant) xen.GuestFunc {
	kbase := t.kbase
	sectors := s.cfg.StoreSectors
	cacheCap := s.cfg.ReadCacheEntries
	hub := s.hub()
	return func(g *xen.GuestEnv) error {
		bf, err := xen.NewBlockFrontend(g)
		if err != nil {
			return err
		}
		var kblk [32]byte
		if err := g.Read(kbase+core.KblkOffset, kblk[:]); err != nil {
			return err
		}
		aes, err := core.NewAESNIFront(g, bf, kblk)
		if err != nil {
			return err
		}
		dev := kv.NewWriteCoalescer(aes, 0)
		if err := kv.Format(dev, storeLBA, sectors); err != nil {
			return err
		}
		store, err := kv.Open(dev, storeLBA, sectors)
		if err != nil {
			return err
		}
		var cache *kv.ValueCache
		if cacheCap > 0 {
			cache = kv.NewValueCache(cacheCap)
		}

		// The host publishes the ring depth, so the guest checks it.
		if g.Info.ServeFrames != ringFrames {
			return fmt.Errorf("serve: start info publishes ring depth %d, want %d", g.Info.ServeFrames, ringFrames)
		}
		reqGPA := g.Info.ServeGFN << hw.PageShift
		respGPA := reqGPA + ringPagesPerDir*hw.PageSize
		doorbell := uint64(g.Info.ServePort)
		completion := doorbell + 1

		var sessionKey [32]byte
		haveKey := false
		var ctl, out [SectorSize]byte
		// Each request frame of a batch is read into its own slot, so the
		// put values decodeRequest returns stay valid until the batch's
		// group commit has copied them into the store.
		reqs := make([]byte, ringFrames*SectorSize)
		resps := make([]stagedResp, 0, ringFrames)
		muts := make([]kv.Op, 0, ringFrames)
		overlay := make(map[string]overlayVal, ringFrames)
		// Last published telemetry baselines: the guest exports deltas
		// after every batch so host-side dashboards track it live.
		var pubCoal kv.CoalesceStats
		var pubStore kv.StoreStats
		var pubHits, pubMisses uint64
		served := 0
		publish := func() {
			st := dev.Stats()
			hub.M.KVSeqWrites.Add(st.SeqWrites - pubCoal.SeqWrites)
			hub.M.KVGroupCommits.Add(st.GroupCommits - pubCoal.GroupCommits)
			pubCoal = st
			ss := store.Stats()
			hub.M.KVCompactions.Add(ss.Compactions - pubStore.Compactions)
			hub.M.KVReclaimed.Add(ss.ReclaimedSectors - pubStore.ReclaimedSectors)
			pubStore = ss
			if cache != nil {
				h, m := cache.Stats()
				hub.M.KVCacheHits.Add(h - pubHits)
				hub.M.KVCacheMisses.Add(m - pubMisses)
				pubHits, pubMisses = h, m
			}
		}
		for {
			if _, err := g.Hypercall(xen.HCEventChannelOp, xen.EvtOpSend, doorbell); err != nil {
				return err
			}
			if err := g.ReadUnencrypted(reqGPA, ctl[:]); err != nil {
				return err
			}
			count, flags, err := decodeReqCtl(ctl[:])
			if err != nil {
				return err
			}
			if count > ringFrames {
				return fmt.Errorf("serve: host posted %d requests", count)
			}
			if count == 0 {
				if flags&FlagStop != 0 {
					return g.ConsolePrint(fmt.Sprintf("served %d ops", served))
				}
				g.Halt()
				continue
			}
			// Pass 1: decode the batch, stage mutations, answer gets from
			// the overlay-over-store view (the cache under that).
			resps = resps[:0]
			muts = muts[:0]
			for k := range overlay {
				delete(overlay, k)
			}
			for i := uint32(0); i < count; i++ {
				frame := reqs[i*SectorSize : (i+1)*SectorSize]
				if err := g.ReadUnencrypted(reqGPA+uint64((i+1)*SectorSize), frame); err != nil {
					return err
				}
				id, op, key, val, err := decodeRequest(frame)
				if err != nil {
					return err
				}
				r := stagedResp{id: id, op: op, status: StatusError}
				switch op {
				case OpInstallKey:
					if len(val) == 32 {
						copy(sessionKey[:], val)
						haveKey = true
						r.status = StatusOK
					}
				case OpPut:
					if haveKey {
						chargeSessionCipher(g, len(val))
						xorSession(sessionKey, key, val)
						muts = append(muts, kv.Op{Key: key, Value: val})
						overlay[key] = overlayVal{val: val}
						if cache != nil {
							cache.Invalidate(key)
						}
						r.status, r.muted = StatusOK, true
					}
				case OpDelete:
					if haveKey {
						muts = append(muts, kv.Op{Key: key, Delete: true})
						overlay[key] = overlayVal{dead: true}
						if cache != nil {
							cache.Invalidate(key)
						}
						r.status, r.muted = StatusOK, true
					}
				case OpGet:
					if haveKey {
						r.status, r.val = execGet(g, store, cache, overlay, sessionKey, key)
					}
				}
				resps = append(resps, r)
			}
			// Pass 2: one group commit for the whole batch. A full log gets
			// one compact-and-retry — the region may be mostly dead
			// records. On (final) failure the staged mutations report
			// errors: nothing was applied to the index, and the store
			// sealed the failed span out of the log.
			if len(muts) > 0 {
				err := store.Apply(muts)
				if errors.Is(err, kv.ErrFull) {
					if cerr := store.Compact(); cerr == nil {
						err = store.Apply(muts)
					}
				}
				if err != nil {
					for i := range resps {
						if resps[i].muted {
							resps[i].status = StatusError
						}
					}
				}
			}
			// Pass 3: post the responses. served mirrors the host's
			// serve.ops accounting — real ops that completed with a
			// definitive answer; key installs and errored ops don't count.
			for i, r := range resps {
				if r.op != OpInstallKey && (r.status == StatusOK || r.status == StatusNotFound) {
					served++
				}
				if err := encodeResponse(out[:], r.id, r.status, r.val); err != nil {
					return err
				}
				if err := g.WriteUnencrypted(respGPA+uint64((i+1)*SectorSize), out[:]); err != nil {
					return err
				}
			}
			encodeRespCtl(out[:], count)
			if err := g.WriteUnencrypted(respGPA, out[:]); err != nil {
				return err
			}
			if _, err := g.Hypercall(xen.HCEventChannelOp, xen.EvtOpSend, completion); err != nil {
				return err
			}
			// Between batches: reclaim dead log space before asking for
			// more work. Compaction never changes a key's value, so the
			// read cache stays coherent across it.
			if store.NeedsCompact(compactGarbageFrac) && store.UsedSectors() >= store.HalfSectors()/2 {
				if err := store.Compact(); err != nil && !errors.Is(err, kv.ErrFull) {
					return err
				}
			}
			publish()
		}
	}
}

// execGet answers one get against the batch overlay first, then the
// read cache, then the store. Values cross the (hypervisor-visible)
// ring encrypted under the session key; a cache hit returns the
// already-encrypted bytes without recharging the cipher, and the
// session-cipher work on misses is charged at AES-NI hardware cost,
// like the disk path's.
func execGet(g *xen.GuestEnv, store *kv.Store, cache *kv.ValueCache, overlay map[string]overlayVal, sessionKey [32]byte, key string) (uint32, []byte) {
	if o, ok := overlay[key]; ok {
		if o.dead {
			return StatusNotFound, nil
		}
		// Mutated earlier in this batch: encrypt the staged value. Not
		// cached — the commit may still fail.
		v := append([]byte{}, o.val...)
		chargeSessionCipher(g, len(v))
		xorSession(sessionKey, key, v)
		return StatusOK, v
	}
	if cache != nil {
		if ct, ok := cache.Get(key); ok {
			return StatusOK, ct
		}
	}
	view, err := store.GetView(key)
	if errors.Is(err, kv.ErrNotFound) {
		return StatusNotFound, nil
	}
	if err != nil {
		return StatusError, nil
	}
	ct := append([]byte{}, view...)
	chargeSessionCipher(g, len(ct))
	xorSession(sessionKey, key, ct)
	if cache != nil {
		cache.Put(key, ct)
	}
	return StatusOK, ct
}

// chargeSessionCipher accounts the session-key crypto on the cycle clock.
func chargeSessionCipher(g *xen.GuestEnv, n int) {
	blocks := uint64((n + 15) / 16)
	if blocks == 0 {
		blocks = 1
	}
	g.Charge(blocks * cycles.AESBlockHW)
}
