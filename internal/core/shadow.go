package core

import (
	"fmt"

	"fidelius/internal/cpu"
	"fidelius/internal/cycles"
	"fidelius/internal/hw"
	"fidelius/internal/telemetry"
	"fidelius/internal/xen"
)

// shadowState is Fidelius's private copy of a guest's VMCB and register
// file, kept in memory unmapped from the hypervisor (Section 4.2.1). The
// in-memory VMCB the hypervisor sees is masked by exit reason; before
// VMRUN the true state is restored and any disallowed modification is
// detected — a software SEV-ES.
type shadowState struct {
	valid bool
	vmcb  cpu.VMCB
	regs  [cpu.NumRegs]uint64
}

// maskedVMCB returns the exit-reason-classified view the hypervisor is
// allowed to see (Section 5.1):
//
//   - NPF: all guest state masked; the hypervisor only needs the fault
//     address in the exitinfo fields.
//   - CPUID: all state masked except the four registers.
//   - VMMCALL: the hypercall number and argument registers stay visible.
//   - everything else: all guest state masked.
//
// Control-area fields (NPT root, ASID, intercepts) are not secret — the
// hypervisor configured them — but their integrity is verified on re-entry.
func maskedVMCB(v *cpu.VMCB) *cpu.VMCB {
	m := *v
	m.RIP, m.RSP, m.CR0, m.CR3, m.CR4, m.EFER = 0, 0, 0, 0, 0, 0
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	switch v.ExitCode {
	case cpu.ExitCPUID:
		copy(m.Regs[:4], v.Regs[:4])
	case cpu.ExitVMMCALL:
		copy(m.Regs[:6], v.Regs[:6])
	}
	return &m
}

// allowedRegs reports which registers the hypervisor may legitimately
// update for the exit reason.
func allowedRegs(reason cpu.ExitReason) int {
	switch reason {
	case cpu.ExitCPUID:
		return 4 // the "specific four registers" of Section 5.1
	case cpu.ExitVMMCALL:
		return 2 // result and errno
	}
	return 0
}

// onVMExit shadows the guest state at the guest→host boundary and leaves
// only the masked view in hypervisor-visible memory.
func (f *Fidelius) onVMExit(d *xen.Domain, vmcbPA hw.PhysAddr) error {
	h := f.hub()
	h.M.Shadows.Inc()
	if h.Tracing() {
		h.Emit(telemetry.KindShadowSave, uint32(d.ID), uint32(d.ASID),
			cycles.ShadowCheck/2+1, uint64(vmcbPA), 0)
	}
	f.M.Ctl.Cycles.Charge(cycles.ShadowCheck/2 + 1)
	// The copy and mask costs are modelled by the ShadowCheck constant,
	// so the mechanics below run on the detached port.
	v, err := cpu.LoadVMCB(f.port, vmcbPA)
	if err != nil {
		return err
	}
	sh := f.shadows[d.ID]
	if sh == nil {
		sh = &shadowState{}
		f.shadows[d.ID] = sh
	}
	sh.valid = true
	sh.vmcb = *v
	sh.regs = f.M.CPU.Regs

	masked := maskedVMCB(v)
	if err := cpu.StoreVMCB(f.port, vmcbPA, masked); err != nil {
		return err
	}
	f.M.CPU.Regs = masked.Regs
	return nil
}

// preVMRun verifies the hypervisor's modifications against the shadow and
// restores the true guest state at the host→guest boundary.
func (f *Fidelius) preVMRun(d *xen.Domain, vmcbPA hw.PhysAddr) error {
	if h := f.hub(); h.Tracing() {
		h.Emit(telemetry.KindShadowVerify, uint32(d.ID), uint32(d.ASID),
			cycles.ShadowCheck/2, uint64(vmcbPA), 0)
	}
	f.M.Ctl.Cycles.Charge(cycles.ShadowCheck / 2)
	// Verification and restore costs are modelled by ShadowCheck.
	cur, err := cpu.LoadVMCB(f.port, vmcbPA)
	if err != nil {
		return err
	}
	sh := f.shadows[d.ID]
	if sh == nil || !sh.valid {
		// First entry: the hypervisor built this VMCB; verify it is
		// consistent with Fidelius's own records before admitting it.
		if cur.NPTRoot != uint64(d.NPT.Root.Addr()) {
			return f.violation("vmcb", "initial NPT root mismatch")
		}
		if cur.GuestASID != uint32(d.ASID) {
			return f.violation("vmcb", "initial ASID mismatch")
		}
		if cur.SEVEnabled != d.SEV {
			return f.violation("vmcb", "initial SEV flag mismatch")
		}
		return nil
	}

	masked := maskedVMCB(&sh.vmcb)
	// Control-area integrity: these fields must be exactly what the
	// guest exited with; any change is an attack (Section 2.2's VMCB
	// tampering).
	if cur.NPTRoot != masked.NPTRoot {
		return f.violation("vmcb", fmt.Sprintf("NPT root tampered: %#x != %#x", cur.NPTRoot, masked.NPTRoot))
	}
	if cur.GuestASID != masked.GuestASID {
		return f.violation("vmcb", "ASID tampered")
	}
	if cur.Intercepts != masked.Intercepts {
		return f.violation("vmcb", "intercept mask tampered")
	}
	if cur.SEVEnabled != masked.SEVEnabled {
		return f.violation("vmcb", "SEV enable bit tampered")
	}
	// Save-area integrity: everything the mask zeroed must still be
	// zero; writing there is tampering with hidden guest state.
	if cur.RIP != masked.RIP || cur.RSP != masked.RSP ||
		cur.CR0 != masked.CR0 || cur.CR3 != masked.CR3 ||
		cur.CR4 != masked.CR4 || cur.EFER != masked.EFER {
		return f.violation("vmcb", "masked guest state tampered")
	}
	nAllowed := allowedRegs(sh.vmcb.ExitCode)
	for i := nAllowed; i < cpu.NumRegs; i++ {
		if cur.Regs[i] != masked.Regs[i] {
			return f.violation("vmcb", fmt.Sprintf("masked register r%d tampered", i))
		}
	}
	// Iago policy: values the hypervisor returns must be plausible. For
	// CPUID they must be exactly the platform's canonical response.
	if sh.vmcb.ExitCode == cpu.ExitCPUID {
		for i := 0; i < 4; i++ {
			if cur.Regs[i] != xen.CPUIDModel[i] {
				return f.violation("iago", fmt.Sprintf("CPUID r%d forged: %#x", i, cur.Regs[i]))
			}
		}
	}

	// Merge: restore the true state, taking only the allowed register
	// updates from the hypervisor.
	merged := sh.vmcb
	copy(merged.Regs[:nAllowed], cur.Regs[:nAllowed])
	if err := cpu.StoreVMCB(f.port, vmcbPA, &merged); err != nil {
		return err
	}
	regs := sh.regs
	copy(regs[:nAllowed], cur.Regs[:nAllowed])
	f.M.CPU.Regs = regs
	return nil
}
