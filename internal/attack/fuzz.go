package attack

import (
	"bytes"
	"fmt"

	"fidelius/internal/xen"
)

// hypercallFuzz is the conspirator guest hammering the hypercall interface
// with adversarial arguments: out-of-range domains, wild GFNs, forged
// grant references, bogus sub-ops. The attacker's goal is to reach any
// state that discloses the victim's secret or corrupts the platform —
// modelling the XSA-style interface bugs of Section 6.2's quantitative
// analysis.
func hypercallFuzz(p *Platform) (bool, string) {
	const rounds = 400
	lcg := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 11
	}

	var reached []byte
	p.X.StartVCPU(p.Conspirator, func(g *xen.GuestEnv) error {
		dst := uint64(p.Conspirator.MemPages)
		for i := 0; i < rounds; i++ {
			nr := next() % 8
			a1, a2, a3, a4 := next()%512, next()%4096, next()%64, next()%8
			// The fuzzer aims some calls at the victim specifically.
			if i%5 == 0 {
				a1 = uint64(p.Victim.ID)
			}
			res, err := g.Hypercall(nr, a1, a2, a3, a4)
			_ = err // errors are expected; crashes and leaks are not
			// If any call produced a mapping at the grant window,
			// probe it for the secret.
			if nr == xen.HCGrantTableOp && err == nil && res < 1024 {
				buf := make([]byte, 16)
				if rerr := g.ReadUnencrypted(dst<<12, buf); rerr == nil {
					if bytes.Contains(p.Secret, buf) && !bytes.Equal(buf, make([]byte, 16)) {
						reached = append([]byte{}, buf...)
					}
				}
			}
		}
		return nil
	})
	if err := p.X.Run(p.Conspirator); err != nil {
		// The platform must survive adversarial guests: a scheduler
		// error here is itself a finding.
		return true, fmt.Sprintf("platform destabilised: %v", err)
	}
	// Victim integrity check: its secret is still intact and private.
	got := make([]byte, len(p.Secret))
	var readErr error
	p.X.StartVCPU(p.Victim, func(g *xen.GuestEnv) error {
		readErr = g.Read(p.SecretGFN<<12, got)
		return nil
	})
	if err := p.X.Run(p.Victim); err != nil {
		return true, err.Error()
	}
	if readErr != nil || !bytes.Equal(got, p.Secret) {
		return true, "fuzzing corrupted the victim's memory"
	}
	if reached != nil {
		return true, "fuzzed grant mapping exposed victim data"
	}
	return false, fmt.Sprintf("%d adversarial hypercalls survived without leak or corruption", rounds)
}
