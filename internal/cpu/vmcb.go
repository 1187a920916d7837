package cpu

import (
	"encoding/binary"
	"fmt"

	"fidelius/internal/hw"
)

// ExitReason is a VMEXIT code.
type ExitReason uint32

// Exit reasons, mirroring the AMD-V exit codes the paper's exit-reason
// classified policies dispatch on (Section 5.1).
const (
	ExitNone    ExitReason = iota
	ExitCPUID              // guest executed CPUID
	ExitHLT                // guest halted
	ExitVMMCALL            // guest hypercall
	ExitNPF                // nested page fault; ExitInfo2 = faulting GPA
	ExitIOIO               // port I/O
	ExitWRMSR              // guest MSR write
	ExitINTR               // external interrupt
	ExitShutdown
)

func (r ExitReason) String() string {
	switch r {
	case ExitNone:
		return "none"
	case ExitCPUID:
		return "cpuid"
	case ExitHLT:
		return "hlt"
	case ExitVMMCALL:
		return "vmmcall"
	case ExitNPF:
		return "npf"
	case ExitIOIO:
		return "ioio"
	case ExitWRMSR:
		return "wrmsr"
	case ExitINTR:
		return "intr"
	case ExitShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("exit(%d)", uint32(r))
}

// VMCB is the virtual machine control block: the control area steering VM
// entry/exit plus the guest save area. SEV (without -ES) leaves this
// structure in plaintext hypervisor memory — the root of the attacks in
// Section 2.2 — so it marshals to/from simulated physical memory where the
// hypervisor (or Fidelius's shadow logic) manipulates it.
type VMCB struct {
	// Control area.
	ExitCode   ExitReason
	ExitInfo1  uint64
	ExitInfo2  uint64
	GuestASID  uint32
	NPTRoot    uint64 // nested page table root (physical address)
	Intercepts uint64 // bitmask of intercepted events
	SEVEnabled bool

	// Save area.
	RIP  uint64
	RSP  uint64
	CR0  uint64
	CR3  uint64 // guest page-table root (GPA)
	CR4  uint64
	EFER uint64
	Regs [NumRegs]uint64
}

// VMCBSize is the marshalled size in bytes. A VMCB occupies one page on
// real hardware; the fields we model fit well within it.
const VMCBSize = 4 + 4 + 8*6 + 1 + 7 + 8*6 + 8*NumRegs

// Marshal encodes the VMCB little-endian into a fixed-size buffer.
func (v *VMCB) Marshal() []byte {
	var b [VMCBSize]byte
	v.encode(&b)
	return b[:]
}

// encode writes the VMCB's binary form into b.
func (v *VMCB) encode(b *[VMCBSize]byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(v.ExitCode))
	le.PutUint32(b[4:], v.GuestASID)
	le.PutUint64(b[8:], v.ExitInfo1)
	le.PutUint64(b[16:], v.ExitInfo2)
	le.PutUint64(b[24:], v.NPTRoot)
	le.PutUint64(b[32:], v.Intercepts)
	if v.SEVEnabled {
		b[56] = 1
	}
	le.PutUint64(b[64:], v.RIP)
	le.PutUint64(b[72:], v.RSP)
	le.PutUint64(b[80:], v.CR0)
	le.PutUint64(b[88:], v.CR3)
	le.PutUint64(b[96:], v.CR4)
	le.PutUint64(b[104:], v.EFER)
	for i := 0; i < NumRegs; i++ {
		le.PutUint64(b[112+8*i:], v.Regs[i])
	}
}

// UnmarshalVMCB decodes a VMCB from its binary form.
func UnmarshalVMCB(b []byte) (*VMCB, error) {
	if len(b) < VMCBSize {
		return nil, fmt.Errorf("cpu: short VMCB: %d < %d", len(b), VMCBSize)
	}
	v := new(VMCB)
	v.decode((*[VMCBSize]byte)(b))
	return v, nil
}

// decode overwrites v with the VMCB encoded in b.
func (v *VMCB) decode(b *[VMCBSize]byte) {
	le := binary.LittleEndian
	*v = VMCB{
		ExitCode:   ExitReason(le.Uint32(b[0:])),
		GuestASID:  le.Uint32(b[4:]),
		ExitInfo1:  le.Uint64(b[8:]),
		ExitInfo2:  le.Uint64(b[16:]),
		NPTRoot:    le.Uint64(b[24:]),
		Intercepts: le.Uint64(b[32:]),
		SEVEnabled: b[56] == 1,
		RIP:        le.Uint64(b[64:]),
		RSP:        le.Uint64(b[72:]),
		CR0:        le.Uint64(b[80:]),
		CR3:        le.Uint64(b[88:]),
		CR4:        le.Uint64(b[96:]),
		EFER:       le.Uint64(b[104:]),
	}
	for i := 0; i < NumRegs; i++ {
		v.Regs[i] = le.Uint64(b[112+8*i:])
	}
}

// LoadVMCB reads a VMCB from physical memory through the controller.
// VMCBs are plaintext host memory (the SEV weakness Fidelius papers over),
// so the access carries no C-bit. It is small enough to inline, so a
// caller that does not keep the VMCB holds it on its own stack.
func LoadVMCB(ctl *hw.Controller, pa hw.PhysAddr) (*VMCB, error) {
	v := new(VMCB)
	if err := v.load(ctl, pa); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *VMCB) load(ctl *hw.Controller, pa hw.PhysAddr) error {
	var b [VMCBSize]byte
	if err := ctl.Read(hw.Access{PA: pa}, b[:]); err != nil {
		return err
	}
	v.decode(&b)
	return nil
}

// StoreVMCB writes a VMCB to physical memory through the controller.
func StoreVMCB(ctl *hw.Controller, pa hw.PhysAddr, v *VMCB) error {
	var b [VMCBSize]byte
	v.encode(&b)
	return ctl.Write(hw.Access{PA: pa}, b[:])
}
