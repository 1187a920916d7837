package attack

import (
	"bytes"
	"fmt"

	"fidelius/internal/hw"
	"fidelius/internal/mmu"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

// coldBoot dumps all of DRAM and searches for the secret (Section 6.1).
// SEV hardware alone defeats this: DRAM holds ciphertext.
func coldBoot(p *Platform) (bool, string) {
	dump := make([]byte, p.X.M.Ctl.Mem.Size())
	if err := p.X.M.Ctl.Mem.ReadRaw(0, dump); err != nil {
		return false, err.Error()
	}
	found := bytes.Contains(dump, p.Secret[:16])
	return found, fmt.Sprintf("secret in DRAM dump: %v", found)
}

// dmaSnoop reads the victim's page through the DMA port (Section 2.2:
// DMA cannot operate on encrypted guest memory).
func dmaSnoop(p *Platform) (bool, string) {
	buf := make([]byte, len(p.Secret))
	if err := p.X.M.Ctl.DMA().Read(p.VictimFrame().Addr(), buf); err != nil {
		return false, err.Error()
	}
	ok := bytes.Equal(buf, p.Secret)
	return ok, fmt.Sprintf("plaintext via DMA: %v", ok)
}

// directMapRead maps and reads the victim's page from hypervisor context.
// On pre-SNP hardware a cache hit returns the victim's plaintext even
// though DRAM is encrypted (Section 6.2, "Breaking memory privacy").
func directMapRead(p *Platform) (bool, string) {
	buf := make([]byte, len(p.Secret))
	if err := p.X.M.CPU.ReadVA(uint64(p.VictimFrame().Addr()), buf); err != nil {
		return false, fmt.Sprintf("guest page unreachable: %v", err)
	}
	ok := bytes.Equal(buf, p.Secret)
	return ok, fmt.Sprintf("plaintext via cached read: %v", ok)
}

// interVMRemap maps the victim's frame into the conspirator VM's NPT; the
// conspirator's access hits the plaintext cache line (Section 6.2).
func interVMRemap(p *Platform) (bool, string) {
	dst := uint64(p.Conspirator.MemPages) // grant-window slot
	err := p.X.MapNPT(p.Conspirator, dst<<hw.PageShift, mmu.MakePTE(p.VictimFrame(), mmu.FlagP|mmu.FlagU))
	if err != nil {
		return false, fmt.Sprintf("NPT update rejected: %v", err)
	}
	got := make([]byte, len(p.Secret))
	var readErr error
	p.X.StartVCPU(p.Conspirator, func(g *xen.GuestEnv) error {
		readErr = g.ReadUnencrypted(dst<<hw.PageShift, got)
		return nil
	})
	if err := p.X.Run(p.Conspirator); err != nil {
		return false, err.Error()
	}
	if readErr != nil {
		return false, readErr.Error()
	}
	ok := bytes.Equal(got, p.Secret)
	return ok, fmt.Sprintf("conspirator read plaintext: %v", ok)
}

// nptReplay swaps the victim's NPT mapping between two of its own pages,
// making the guest observe stale/substituted state — the Hetzelt-Buhren
// replay (Section 2.2, defeated per Section 6.2).
func nptReplay(p *Platform) (bool, string) {
	// Victim writes distinct values into two pages.
	p.X.StartVCPU(p.Victim, func(g *xen.GuestEnv) error {
		if err := g.Write(10<<hw.PageShift, []byte("CURRENT-VALUE-AA")); err != nil {
			return err
		}
		return g.Write(11<<hw.PageShift, []byte("STALE-SNAPSHOT-B"))
	})
	if err := p.X.Run(p.Victim); err != nil {
		return false, err.Error()
	}
	// The hypervisor redirects GPA 10 to the frame backing GPA 11.
	frameB, _ := p.Victim.GPAFrame(11)
	slot, err := p.X.NPTLeafSlot(p.Victim, 10<<hw.PageShift)
	if err != nil {
		return false, err.Error()
	}
	// Direct store first (baseline path)...
	werr := p.X.M.CPU.Write64(uint64(slot), uint64(mmu.MakePTE(frameB, mmu.FlagP|mmu.FlagW|mmu.FlagU)))
	if werr != nil {
		// ...then through the gate (Fidelius path): the policy must
		// also refuse.
		werr = p.X.Interpose.WritePTE(p.Victim, slot, mmu.MakePTE(frameB, mmu.FlagP|mmu.FlagW|mmu.FlagU))
	}
	if werr != nil {
		return false, fmt.Sprintf("remap rejected: %v", werr)
	}
	// Victim reads GPA 10: does it see the substituted content?
	got := make([]byte, 16)
	p.X.StartVCPU(p.Victim, func(g *xen.GuestEnv) error {
		return g.Read(10<<hw.PageShift, got)
	})
	if err := p.X.Run(p.Victim); err != nil {
		return false, err.Error()
	}
	ok := bytes.Equal(got, []byte("STALE-SNAPSHOT-B"))
	return ok, fmt.Sprintf("victim observed substituted page: %v", ok)
}

// grantForgery escalates a read-only grant to writable by editing the
// grant table directly (Section 2.2: "the hypervisor can tamper the
// permission to writable, while the origin VM shares its memory with only
// read permission").
func grantForgery(p *Platform) (bool, string) {
	// Victim shares page 12 read-only with the conspirator.
	var ref uint64
	var grantErr error
	p.X.StartVCPU(p.Victim, func(g *xen.GuestEnv) error {
		if p.Protected() {
			if _, err := g.Hypercall(xen.HCPreSharingOp, uint64(p.Conspirator.ID), 12, 1, uint64(xen.GrantReadOnly)); err != nil {
				return err
			}
		}
		r, err := g.Hypercall(xen.HCGrantTableOp, xen.GntOpGrant, uint64(p.Conspirator.ID), 12, uint64(xen.GrantReadOnly))
		ref, grantErr = r, err
		return nil
	})
	if err := p.X.Run(p.Victim); err != nil {
		return false, err.Error()
	}
	if grantErr != nil {
		return false, grantErr.Error()
	}
	// The hypervisor rewrites the entry without the read-only bit.
	slot, err := p.Victim.Grant.SlotPA(int(ref))
	if err != nil {
		return false, err.Error()
	}
	forged := xen.GrantEntry{Flags: xen.GrantInUse, Grantee: p.Conspirator.ID, GFN: 12}
	var buf [xen.GrantEntrySize]byte
	forged.Marshal(buf[:])
	if werr := p.X.M.CPU.WriteVA(uint64(slot), buf[:]); werr != nil {
		return false, fmt.Sprintf("grant table write rejected: %v", werr)
	}
	// The conspirator maps it and writes.
	var writeErr error
	p.X.StartVCPU(p.Conspirator, func(g *xen.GuestEnv) error {
		dst := uint64(p.Conspirator.MemPages)
		if _, err := g.Hypercall(xen.HCGrantTableOp, xen.GntOpMap, uint64(p.Victim.ID), ref, dst); err != nil {
			return err
		}
		writeErr = g.WriteUnencrypted(dst<<hw.PageShift, []byte("OVERWRITTEN"))
		return nil
	})
	if err := p.X.Run(p.Conspirator); err != nil {
		return false, err.Error()
	}
	ok := writeErr == nil
	return ok, fmt.Sprintf("conspirator wrote through forged grant: %v", ok)
}

// keySharingAbuse rebinds the victim's SEV handle to an attacker-chosen
// ASID so the victim's key decrypts for the attacker (Section 2.2: the
// handle-ASID relationship is hypervisor-managed and unprotected).
func keySharingAbuse(p *Platform) (bool, string) {
	fw := p.X.M.FW
	handle := p.Victim.Handle
	if p.Protected() {
		// The hypervisor does not know the handle: the SEV metadata is
		// self-maintained. Try every plausible handle.
		for h := uint32(1); h < 16; h++ {
			if err := fw.Deactivate(sev.Handle(h)); err == nil {
				return true, "firmware accepted a hypervisor-issued DEACTIVATE"
			}
		}
		return false, "firmware rejects hypervisor-issued SEV commands"
	}
	const evilASID = 99
	if err := fw.Deactivate(handle); err != nil {
		return false, err.Error()
	}
	if err := fw.Activate(handle, evilASID); err != nil {
		return false, err.Error()
	}
	p.X.M.Ctl.Cache.Flush() // go straight to the engine
	got := make([]byte, len(p.Secret))
	if err := p.X.M.Ctl.Read(hw.Access{PA: p.VictimFrame().Addr(), Encrypted: true, ASID: evilASID}, got); err != nil {
		return false, err.Error()
	}
	ok := bytes.Equal(got, p.Secret)
	return ok, fmt.Sprintf("victim key decrypts under attacker ASID: %v", ok)
}
