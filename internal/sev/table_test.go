package sev

import (
	"bytes"
	"errors"
	"testing"

	"fidelius/internal/hw"
)

// allStates lists every guest context state, in the column order of
// wantVerdicts.
var allStates = []State{StateInvalid, StateLaunching, StateRunning, StateSending, StateReceiving, StateSent}

// cmdFixture is one firmware with one context forced into a state and
// armed so that every guest command it names is refused, if at all, for
// its state alone: the context holds a transport session under known
// keys, and the arguments are aligned, in range and correctly wrapped.
type cmdFixture struct {
	f     *Firmware
	h     Handle
	owner *Owner
	wrap  WrappedKeys // transportKey wrapped by owner for f
}

// transportKey is the TEK every fixture session runs under (TIK zero, as
// an owner-wrapped GEK unwraps).
var transportKey = [32]byte{0x5a, 1, 2, 3}

func newCmdFixture(t testing.TB, state State, withGEK bool) *cmdFixture {
	t.Helper()
	f := NewFirmware(hw.NewController(hw.NewMemory(16), 64))
	if err := f.Init(); err != nil {
		t.Fatal(err)
	}
	h, err := f.LaunchStart(0)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	pub, err := f.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	wrap, err := owner.WrapGEK(pub, transportKey)
	if err != nil {
		t.Fatal(err)
	}
	c := f.ctxs[h]
	c.setTransport(TransportKeys{TEK: transportKey})
	c.state = state
	if withGEK {
		c.gek = gekSession(transportKey)
	}
	return &cmdFixture{f: f, h: h, owner: owner, wrap: wrap}
}

// guestCommands names every firmware command that takes a guest handle,
// by its span name (dec-page is DEC at page granularity), with a call
// valid in every respect but the context's state.
var guestCommands = []struct {
	name string
	run  func(x *cmdFixture, h Handle) error
}{
	{"launch-helper", func(x *cmdFixture, h Handle) error { _, err := x.f.LaunchHelper(h); return err }},
	{"launch-finish", func(x *cmdFixture, h Handle) error { return x.f.LaunchFinish(h) }},
	{"activate", func(x *cmdFixture, h Handle) error { return x.f.Activate(h, hw.ASID(1+h%2)) }},
	{"deactivate", func(x *cmdFixture, h Handle) error { return x.f.Deactivate(h) }},
	{"decommission", func(x *cmdFixture, h Handle) error { return x.f.Decommission(h) }},
	{"send-start", func(x *cmdFixture, h Handle) error {
		_, err := x.f.SendStart(h, x.owner.PublicKey(), x.owner.Nonce())
		return err
	}},
	{"send-update", func(x *cmdFixture, h Handle) error {
		_, err := x.f.SendUpdatePages(h, []hw.PFN{1}, slab(1), nil)
		return err
	}},
	{"send-io", func(x *cmdFixture, h Handle) error { return x.f.SendIO(h, hw.PFN(1).Addr(), make([]byte, 512), 3) }},
	{"send-cancel", func(x *cmdFixture, h Handle) error { return x.f.SendCancel(h) }},
	{"send-finish", func(x *cmdFixture, h Handle) error { _, err := x.f.SendFinish(h); return err }},
	{"receive-helper-start", func(x *cmdFixture, h Handle) error {
		_, err := x.f.ReceiveHelperStart(h, x.wrap, x.owner.PublicKey(), x.owner.Nonce())
		return err
	}},
	{"receive-update", func(x *cmdFixture, h Handle) error {
		var seq uint64
		if c, ok := x.f.ctxs[h]; ok {
			seq = c.seq
		}
		pkt := sealPacket(newSession(TransportKeys{TEK: transportKey}), seq, bytes.Repeat([]byte{7}, hw.PageSize))
		return x.f.ReceiveUpdatePages(h, []hw.PFN{2}, []Packet{pkt})
	}},
	{"receive-io", func(x *cmdFixture, h Handle) error { return x.f.ReceiveIO(h, hw.PFN(2).Addr(), make([]byte, 512), 3) }},
	{"receive-finish", func(x *cmdFixture, h Handle) error {
		var m Measurement
		if c, ok := x.f.ctxs[h]; ok {
			m = c.measure
		}
		return x.f.ReceiveFinish(h, m)
	}},
	{"attest-guest", func(x *cmdFixture, h Handle) error {
		_, err := x.f.AttestGuest(h, []byte("nonce"), [32]byte{}, [32]byte{})
		return err
	}},
	{"setenc-gek", func(x *cmdFixture, h Handle) error {
		return x.f.SetEncGEK(h, x.wrap, x.owner.PublicKey(), x.owner.Nonce())
	}},
	{"enc", func(x *cmdFixture, h Handle) error { return x.f.Enc(h, hw.PFN(1).Addr(), make([]byte, 512), 3) }},
	{"dec", func(x *cmdFixture, h Handle) error { return x.f.Dec(h, hw.PFN(2).Addr(), make([]byte, 512), 3) }},
	{"dec-page", func(x *cmdFixture, h Handle) error { return x.f.DecPage(h, 3, make([]byte, hw.PageSize), 0) }},
}

// wantVerdicts is the SEV API guest state machine, written out by hand:
// one column per state in allStates order (invalid, launching, running,
// sending, receiving, sent). 'A' accepts, '.' refuses with ErrBadState,
// 'g' accepts with a GEK installed and refuses with ErrNoGEK without.
var wantVerdicts = map[string]string{
	"launch-helper":        "AAAAAA",
	"launch-finish":        ".A....",
	"activate":             "AAAAAA",
	"deactivate":           "AAAAAA",
	"decommission":         "AAAAAA",
	"send-start":           "..A...",
	"send-update":          "...A..",
	"send-io":              "...A..",
	"send-cancel":          "...A.A",
	"send-finish":          "...A..",
	"receive-helper-start": "AAAAAA",
	"receive-update":       "....A.",
	"receive-io":           "....A.",
	"receive-finish":       "....A.",
	"attest-guest":         "..A...",
	"setenc-gek":           "AAAAAA",
	"enc":                  "gggggg",
	"dec":                  "gggggg",
	"dec-page":             "gggggg",
}

// wantMoves is where an accepted command leaves the context it moves:
// the named one, or for launch-helper and receive-helper-start the new
// helper context. Commands not listed move nothing; decommission erases
// the context.
var wantMoves = map[string]State{
	"launch-helper":        StateRunning,
	"launch-finish":        StateRunning,
	"send-start":           StateSending,
	"send-cancel":          StateRunning,
	"send-finish":          StateSent,
	"receive-helper-start": StateReceiving,
	"receive-finish":       StateRunning,
}

// fwSnapshot is what a command refused at entry must leave untouched:
// every context's state, the context count and the cycle clock.
type fwSnapshot struct {
	states map[Handle]State
	cycles uint64
}

func snapshotFW(f *Firmware) fwSnapshot {
	s := fwSnapshot{states: make(map[Handle]State), cycles: f.ctl.Cycles.Total()}
	for h, c := range f.ctxs {
		s.states[h] = c.state
	}
	return s
}

// refusalLeftNoTrace fails the test unless f matches the snapshot taken
// before a refused command.
func refusalLeftNoTrace(t *testing.T, f *Firmware, before fwSnapshot, what string) {
	t.Helper()
	after := snapshotFW(f)
	if after.cycles != before.cycles {
		t.Errorf("%s: refused command charged %d cycles", what, after.cycles-before.cycles)
	}
	if len(after.states) != len(before.states) {
		t.Errorf("%s: refused command left %d contexts, had %d", what, len(after.states), len(before.states))
	}
	for h, s := range before.states {
		if after.states[h] != s {
			t.Errorf("%s: refused command moved handle %d from %v to %v", what, h, s, after.states[h])
		}
	}
}

// TestCommandStateMatrix runs every guest command in every context state,
// with and without a GEK installed, and on a decommissioned handle. It
// pins the verdict and the state an accepted command moves to, and checks
// that a refused command changes no state, makes no context and charges
// no cycle.
func TestCommandStateMatrix(t *testing.T) {
	for _, cmd := range guestCommands {
		row, ok := wantVerdicts[cmd.name]
		if !ok {
			t.Fatalf("%s: no expected verdicts", cmd.name)
		}
		for i, st := range allStates {
			for _, withGEK := range []bool{true, false} {
				x := newCmdFixture(t, st, withGEK)
				what := cmd.name + " in " + st.String()
				if !withGEK {
					what += " without a GEK"
				}
				before := snapshotFW(x.f)
				err := cmd.run(x, x.h)
				switch v := row[i]; {
				case v == 'A' || v == 'g' && withGEK:
					if err != nil {
						t.Errorf("%s: refused: %v", what, err)
						continue
					}
					checkStep(t, x.f, before, cmd.name, x.h, wantMoves[cmd.name], what)
				case v == 'g':
					if !errors.Is(err, ErrNoGEK) {
						t.Errorf("%s: got %v, want ErrNoGEK", what, err)
					}
					refusalLeftNoTrace(t, x.f, before, what)
				default:
					if !errors.Is(err, ErrBadState) {
						t.Errorf("%s: got %v, want ErrBadState", what, err)
					}
					refusalLeftNoTrace(t, x.f, before, what)
				}
			}
		}
	}
	for _, cmd := range guestCommands {
		x := newCmdFixture(t, StateRunning, true)
		if err := x.f.Decommission(x.h); err != nil {
			t.Fatal(err)
		}
		before := snapshotFW(x.f)
		if err := cmd.run(x, x.h); !errors.Is(err, ErrBadHandle) {
			t.Errorf("%s on a decommissioned handle: got %v, want ErrBadHandle", cmd.name, err)
		}
		refusalLeftNoTrace(t, x.f, before, cmd.name+" on a decommissioned handle")
	}
}

// checkStep checks an accepted command name moved what it should: h (0
// for a handleless command) moved to state to or, where to is invalid, stayed put (a
// decommissioned h is gone); a command that makes a context made one, in
// to; no other context moved. what names the step in failures. It
// returns the handles made.
func checkStep(t *testing.T, f *Firmware, before fwSnapshot, name string, h Handle, to State, what string) []Handle {
	t.Helper()
	after := snapshotFW(f)
	var made []Handle
	for nh, s := range after.states {
		if _, old := before.states[nh]; !old {
			made = append(made, nh)
			if s != to {
				t.Errorf("%s: made handle %d in %v, want %v", what, nh, s, to)
			}
		}
	}
	wantMade := 0
	switch name {
	case "launch-start", "receive-start", "launch-helper", "receive-helper-start":
		wantMade = 1
	}
	if len(made) != wantMade {
		t.Errorf("%s: made %d contexts, want %d", what, len(made), wantMade)
	}
	for oh, s := range before.states {
		got, live := after.states[oh]
		switch {
		case oh == h && name == "decommission":
			if live {
				t.Errorf("%s: handle %d not erased", what, h)
			}
		case !live:
			t.Errorf("%s: erased handle %d", what, oh)
		case oh == h && wantMade == 0 && to != StateInvalid:
			if got != to {
				t.Errorf("%s: moved handle %d from %v to %v, want %v", what, h, s, got, to)
			}
		case got != s:
			t.Errorf("%s: moved handle %d from %v to %v", what, oh, s, got)
		}
	}
	return made
}
