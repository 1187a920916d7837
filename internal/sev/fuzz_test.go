package sev

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"fidelius/internal/hw"
)

// handlelessCommands are the commands FuzzFirmwareCommands draws besides
// guestCommands, naming no handle: the two that make a context from
// nothing, and DF_FLUSH.
var handlelessCommands = []struct {
	name string
	run  func(x *cmdFixture) error
}{
	{"launch-start", func(x *cmdFixture) error { _, err := x.f.LaunchStart(0); return err }},
	{"receive-start", func(x *cmdFixture) error {
		_, err := x.f.ReceiveStart(x.wrap, x.owner.PublicKey(), x.owner.Nonce())
		return err
	}},
	{"df-flush", func(x *cmdFixture) error { return x.f.DFFlush() }},
}

// fuzzSeed encodes a command sequence written as "name/slot" words (a
// handleless command takes no slot) in FuzzFirmwareCommands' two-byte
// steps.
func fuzzSeed(prog string) []byte {
	var out []byte
	for _, w := range strings.Fields(prog) {
		name, slot, _ := strings.Cut(w, "/")
		n, _ := strconv.Atoi(slot)
		op := -1
		for i, c := range guestCommands {
			if c.name == name {
				op = i
			}
		}
		for i, c := range handlelessCommands {
			if c.name == name {
				op = len(guestCommands) + i
			}
		}
		if op < 0 {
			panic("fuzzSeed: unknown command " + name)
		}
		out = append(out, byte(op), byte(n))
	}
	return out
}

// FuzzFirmwareCommands runs byte-chosen sequences of (command, handle
// slot) on a firmware that starts with two launching contexts, and after
// every step checks that a command refused at entry left no trace, that
// an accepted command moved its context along its row of the state
// table, and that a decommissioned handle refuses everything.
func FuzzFirmwareCommands(f *testing.F) {
	for _, prog := range []string{
		"launch-finish/0 activate/0 launch-start launch-finish/2 activate/2 deactivate/0 activate/2 df-flush activate/2 activate/1",
		"launch-finish/0 activate/0 launch-helper/0 send-start/2 receive-helper-start/0 send-io/2 receive-io/3",
		"launch-finish/0 send-start/0 send-update/0 send-finish/0 send-cancel/0 send-start/0 send-cancel/0 attest-guest/0",
		"receive-start receive-update/2 receive-update/2 receive-finish/2 attest-guest/2 decommission/2 activate/2",
		"setenc-gek/1 dec-page/1 launch-finish/1 enc/1 dec/1 deactivate/1 decommission/1 df-flush dec/1",
	} {
		f.Add(fuzzSeed(prog))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		x := newCmdFixture(t, StateLaunching, false)
		h2, err := x.f.LaunchStart(0)
		if err != nil {
			t.Fatal(err)
		}
		handles := []Handle{x.h, h2}
		dead := map[Handle]bool{}
		for i := 0; i+1 < len(prog) && i < 64; i += 2 {
			op := int(prog[i]) % (len(guestCommands) + len(handlelessCommands))
			before := snapshotFW(x.f)
			if op >= len(guestCommands) {
				m := handlelessCommands[op-len(guestCommands)]
				if err := m.run(x); err != nil {
					t.Fatalf("step %d %s: %v", i/2, m.name, err)
				}
				handles = append(handles, checkStep(t, x.f, before, m.name, 0, table[m.name].to, m.name)...)
				continue
			}
			cmd := guestCommands[op]
			h := handles[int(prog[i+1])%len(handles)]
			what := fmt.Sprintf("step %d %s on handle %d", i/2, cmd.name, h)
			err := cmd.run(x, h)
			switch {
			case dead[h]:
				if !errors.Is(err, ErrBadHandle) {
					t.Fatalf("%s, decommissioned: got %v, want ErrBadHandle", what, err)
				}
				refusalLeftNoTrace(t, x.f, before, what)
			case errors.Is(err, ErrBadHandle):
				t.Fatalf("%s: live handle refused as unknown", what)
			case errors.Is(err, ErrBadState) || errors.Is(err, ErrNoGEK):
				refusalLeftNoTrace(t, x.f, before, what)
			case err == nil:
				r := table[strings.TrimSuffix(cmd.name, "-page")]
				if !r.allows(before.states[h]) {
					t.Fatalf("%s: accepted in %v", what, before.states[h])
				}
				handles = append(handles, checkStep(t, x.f, before, cmd.name, h, r.to, what)...)
				if cmd.name == "decommission" {
					dead[h] = true
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	})
}

// FuzzPacketTamperRefused seals a page under a random seq, checks the
// genuine packet opens to its plaintext, then changes one byte of the
// packet, picked by pos over its data, its seq's eight bytes and its
// 32-byte tag, and checks the changed packet is refused.
func FuzzPacketTamperRefused(f *testing.F) {
	s := newSession(TransportKeys{TEK: [32]byte{1, 2, 3}, TIK: [32]byte{4, 5, 6}})
	f.Add(uint64(0), []byte("page"), uint16(0), byte(1))
	f.Add(uint64(7), []byte{}, uint16(hw.PageSize), byte(0x80))
	f.Add(^uint64(0), []byte{0xFF}, uint16(hw.PageSize+8+16), byte(0xFF))
	f.Fuzz(func(t *testing.T, seq uint64, page []byte, pos uint16, flip byte) {
		plain := make([]byte, hw.PageSize)
		copy(plain, page)
		pkt := sealPacket(s, seq, append([]byte(nil), plain...))
		got, err := openPacket(s, pkt, slab(1))
		if err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("genuine packet seq %d does not open to its plaintext (err %v)", seq, err)
		}
		if flip == 0 {
			flip = 1
		}
		bad := pkt
		bad.Data = append([]byte(nil), pkt.Data...)
		switch at := int(pos) % (hw.PageSize + 8 + len(pkt.Tag)); {
		case at < hw.PageSize:
			bad.Data[at] ^= flip
		case at < hw.PageSize+8:
			bad.Seq ^= uint64(flip) << (8 * (at - hw.PageSize))
		default:
			bad.Tag[at-hw.PageSize-8] ^= flip
		}
		if _, err := openPacket(s, bad, slab(1)); !errors.Is(err, ErrBadTag) {
			t.Fatalf("packet seq %d changed at byte %d by %#x: got %v, want ErrBadTag", seq, pos, flip, err)
		}
	})
}
