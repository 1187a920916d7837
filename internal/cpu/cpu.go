// Package cpu models the processor core the simulator runs on: general
// purpose registers, control registers with x86 semantics (CR0.PG/WP,
// CR4.SMEP, EFER.NXE), guest/host modes, an interpreter for the tiny ISA,
// and the VMCB world-switch structure of AMD-V.
//
// The properties Fidelius builds on are reproduced faithfully:
//
//   - Supervisor stores honour the page-table W bit only while CR0.WP is
//     set; clearing WP is how the type 1 gate opens its write window, and
//     "WP cannot be cleared by the hypervisor" is what the MOV CR0 policy
//     enforces.
//   - Clearing CR0.PG disables translation entirely (raw physical access),
//     which is why the PG policy exists.
//   - MOV CR3 switches the address space and flushes the whole TLB, which
//     is why Fidelius avoids the separate-address-space design.
//   - Instruction fetch honours NX (when EFER.NXE is set) and SMEP, and a
//     fetch from an unmapped page faults — the mechanism behind type 3
//     gates for VMRUN and MOV CR3.
package cpu

import (
	"errors"
	"fmt"

	"fidelius/internal/hw"
	"fidelius/internal/isa"
	"fidelius/internal/mmu"
)

// Control register bits.
const (
	CR0PG = uint64(1) << 31 // paging enable
	CR0WP = uint64(1) << 16 // supervisor write protection

	CR4SMEP = uint64(1) << 20 // supervisor-mode execution prevention

	EFERNXE = uint64(1) << 11 // no-execute enable

	// MSREFER is the MSR index of EFER.
	MSREFER = 0xC0000080
)

// NumRegs is the number of general purpose registers.
const NumRegs = 8

// SP is the register used as the stack pointer by call/ret.
const SP = 7

// Mode is the processor world.
type Mode int

// Processor worlds.
const (
	Host Mode = iota
	GuestMode
)

// ErrHalted is returned by Run when the code executes HLT.
var ErrHalted = errors.New("cpu: halted")

// ProtectionError reports an operation rejected by an installed policy
// hook (the simulated Fidelius checking loop reverting an invalid
// privileged operation).
type ProtectionError struct {
	Op     string
	Detail string
}

func (e *ProtectionError) Error() string {
	return fmt.Sprintf("cpu: protection violation in %s: %s", e.Op, e.Detail)
}

// Hooks let a trusted context interpose on the instruction stream. They
// model the sanity-check logic Fidelius places around monopolised
// privileged instructions: AddrHooks fire when RIP reaches an address
// (the checking loop "right after the instruction"), and the CR/MSR hooks
// fire on writes so a policy can reject them.
type Hooks struct {
	// Addr maps a code virtual address to a callback run when RIP
	// reaches it during Run.
	Addr map[uint64]func(c *CPU) error
	// CR0Write, CR3Write, CR4Write and MSRWrite, when non-nil, may veto
	// a control-state write by returning an error; the write is then
	// reverted before the error propagates.
	CR0Write func(c *CPU, old, new uint64) error
	CR3Write func(c *CPU, old, new uint64) error
	CR4Write func(c *CPU, old, new uint64) error
	MSRWrite func(c *CPU, msr uint32, old, new uint64) error
	// Exec fires before executing each instruction, with its address;
	// used by execute-once policies.
	Exec func(c *CPU, addr uint64, op isa.Op) error
}

// CPU is one simulated core. It is owned by a single goroutine at a time;
// the guest/host world switch hands ownership over as a coroutine switch.
type CPU struct {
	Ctl *hw.Controller
	TLB *mmu.TLB

	Regs [NumRegs]uint64
	RIP  uint64
	CR0  uint64
	CR3  uint64
	CR4  uint64
	EFER uint64

	Mode Mode
	// IF is the interrupt flag; gates disable interrupts during
	// transitions.
	IF bool

	// TrustedContext is set while execution is inside the Fidelius
	// context (entered through a gate). Policy hooks consult it: the
	// single sanctioned copy of each privileged instruction lives in
	// Fidelius's code and runs with this flag set; the same operation
	// from hypervisor context is vetoed.
	TrustedContext bool

	// VMRunFn is invoked by the VMRUN instruction with the VMCB physical
	// address; the platform installs the world switch here.
	VMRunFn func(vmcbPA uint64) error

	// Hook points for Fidelius.
	Hooks Hooks

	// PageFaultFn, when non-nil, is offered every host page fault before
	// it propagates; returning true retries the faulting operation.
	PageFaultFn func(c *CPU, f *mmu.PageFault) bool

	// PageFaultDoneFn, when non-nil, runs after an access whose fault
	// PageFaultFn handled has completed. Fidelius uses it to re-arm
	// write-once protection immediately after the mediated write.
	PageFaultDoneFn func(c *CPU)
}

// New returns a CPU in host mode with paging disabled and interrupts on.
func New(ctl *hw.Controller) *CPU {
	c := &CPU{Ctl: ctl, TLB: mmu.NewTLB(), IF: true, CR0: 0, EFER: EFERNXE}
	if ctl != nil {
		c.TLB.Register(ctl.Telem)
	}
	return c
}

func (c *CPU) charge(n uint64) { c.Ctl.Cycles.Charge(n) }

// PagingEnabled reports CR0.PG.
func (c *CPU) PagingEnabled() bool { return c.CR0&CR0PG != 0 }

// WP reports CR0.WP.
func (c *CPU) WP() bool { return c.CR0&CR0WP != 0 }

// hostSpace returns the current host page-table space.
func (c *CPU) hostSpace() *mmu.Space {
	return &mmu.Space{Ctl: c.Ctl, Root: hw.PhysAddr(c.CR3).Frame()}
}

// translate resolves a host virtual address for the given access,
// honouring CR0.PG, CR0.WP, EFER.NXE and CR4.SMEP. Successful read and
// execute translations are cached in the TLB under ASID 0; writes always
// walk so that WP transitions take immediate effect.
func (c *CPU) translate(va uint64, access mmu.AccessType) (hw.PhysAddr, mmu.Translation, error) {
	if !c.PagingEnabled() {
		// Paging off: raw physical addressing, no protection at all.
		return hw.PhysAddr(va), mmu.Translation{HPA: hw.PhysAddr(mmu.PageBase(va))}, nil
	}
	if access != mmu.Write {
		if tr, ok := c.TLB.Lookup(hw.HostASID, va, access); ok {
			c.charge(1)
			return tr.HPA + hw.PhysAddr(va&(hw.PageSize-1)), tr, nil
		}
	}
	tr, err := c.hostSpace().Translate(va, access, c.WP(), false)
	if err != nil {
		pf, ok := err.(*mmu.PageFault)
		if ok && pf.Reason == mmu.NXViolation && c.EFER&EFERNXE == 0 {
			// NX ignored with NXE clear — why the WRMSR policy
			// forbids clearing it.
			tr, err = c.hostSpace().Translate(va, mmu.Read, c.WP(), false)
			if err != nil {
				return 0, mmu.Translation{}, err
			}
		} else {
			return 0, mmu.Translation{}, err
		}
	}
	if access == mmu.Execute && c.CR4&CR4SMEP != 0 && tr.PTE.User() {
		return 0, mmu.Translation{}, &mmu.PageFault{VA: va, Access: access, Reason: mmu.UserSupervisor}
	}
	if access != mmu.Write {
		c.TLB.Insert(hw.HostASID, va, access, tr)
	}
	return tr.HPA + hw.PhysAddr(va&(hw.PageSize-1)), tr, nil
}

// access performs a paged host access, splitting at page boundaries and
// retrying after a handled page fault.
func (c *CPU) access(va uint64, buf []byte, acc mmu.AccessType) error {
	done := 0
	handled := false
	defer func() {
		if handled && c.PageFaultDoneFn != nil {
			c.PageFaultDoneFn(c)
		}
	}()
	for done < len(buf) {
		cur := va + uint64(done)
		n := int(hw.PageSize - cur&(hw.PageSize-1))
		if n > len(buf)-done {
			n = len(buf) - done
		}
		pa, tr, err := c.translate(cur, acc)
		if err != nil {
			if pf, ok := err.(*mmu.PageFault); ok && c.PageFaultFn != nil && c.PageFaultFn(c, pf) {
				handled = true
				continue // handled: retry
			}
			return err
		}
		ha := hw.Access{PA: pa, Encrypted: tr.Encrypted, ASID: hw.HostASID}
		if acc == mmu.Write {
			err = c.Ctl.Write(ha, buf[done:done+n])
		} else {
			err = c.Ctl.Read(ha, buf[done:done+n])
		}
		if err != nil {
			return err
		}
		done += n
	}
	return nil
}

// ReadVA reads host virtual memory with supervisor permissions.
func (c *CPU) ReadVA(va uint64, buf []byte) error { return c.access(va, buf, mmu.Read) }

// WriteVA writes host virtual memory with supervisor permissions,
// honouring CR0.WP. This is the path hypervisor code uses for every store,
// including page-table and grant-table updates — which is exactly where
// Fidelius's write protection bites.
func (c *CPU) WriteVA(va uint64, data []byte) error { return c.access(va, data, mmu.Write) }

// Read64 reads a little-endian uint64 at va.
func (c *CPU) Read64(va uint64) (uint64, error) {
	var b [8]byte
	if err := c.ReadVA(va, b[:]); err != nil {
		return 0, err
	}
	return le64(b[:]), nil
}

// Write64 writes a little-endian uint64 at va.
func (c *CPU) Write64(va, val uint64) error {
	var b [8]byte
	put64(b[:], val)
	return c.WriteVA(va, b[:])
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
