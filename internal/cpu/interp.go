package cpu

import (
	"fmt"

	"fidelius/internal/cycles"
	"fidelius/internal/hw"
	"fidelius/internal/isa"
	"fidelius/internal/mmu"
	"fidelius/internal/telemetry"
)

// fetch reads up to 10 instruction bytes at RIP into buf through
// execute-checked translation, splitting at page boundaries, and returns
// the instruction length. A fetch fault on the *first* byte is the
// "instruction page unmapped" event type 3 gates rely on; a fault on a
// continuation byte is the MOV-CR3-at-page-end subtlety from Section
// 4.1.2.
func (c *CPU) fetch(va uint64, buf *[10]byte) (int, error) {
	// First byte decides the length.
	pa, tr, err := c.translate(va, mmu.Execute)
	if err != nil {
		return 0, err
	}
	if err := c.Ctl.Read(hw.Access{PA: pa, Encrypted: tr.Encrypted, ASID: hw.HostASID}, buf[:1]); err != nil {
		return 0, err
	}
	n := isa.Op(buf[0]).Len()
	if n == 0 {
		return 0, fmt.Errorf("cpu: invalid opcode %#x at rip %#x", buf[0], va)
	}
	for i := 1; i < n; i++ {
		pa, tr, err := c.translate(va+uint64(i), mmu.Execute)
		if err != nil {
			return 0, err
		}
		if err := c.Ctl.Read(hw.Access{PA: pa, Encrypted: tr.Encrypted, ASID: hw.HostASID}, buf[i:i+1]); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Step fetches, decodes and executes one instruction at RIP in host mode.
// It returns ErrHalted on HLT and the fault or policy error otherwise.
func (c *CPU) Step() error {
	if hook, ok := c.Hooks.Addr[c.RIP]; ok {
		if err := hook(c); err != nil {
			return err
		}
	}
	var raw [10]byte
	ilen, err := c.fetch(c.RIP, &raw)
	if err != nil {
		if pf, ok := err.(*mmu.PageFault); ok && c.PageFaultFn != nil && c.PageFaultFn(c, pf) {
			return nil // handled: Run retries at same RIP
		}
		return err
	}
	in, n, err := isa.Decode(raw[:ilen])
	if err != nil {
		return err
	}
	if c.Hooks.Exec != nil {
		if err := c.Hooks.Exec(c, c.RIP, in.Op); err != nil {
			return err
		}
	}
	next := c.RIP + uint64(n)
	switch in.Op {
	case isa.OpNop:
		c.charge(cycles.ALUOp)
	case isa.OpALU:
		c.charge(cycles.ALUOp)
		c.Regs[0] = c.Regs[0]*6364136223846793005 + uint64(in.Reg) + 1442695040888963407
	case isa.OpMovImm:
		c.charge(cycles.ALUOp)
		c.Regs[in.Reg%NumRegs] = in.Imm
	case isa.OpLoad:
		v, err := c.Read64(in.Imm)
		if err != nil {
			return err
		}
		c.Regs[in.Reg%NumRegs] = v
	case isa.OpStore:
		if err := c.Write64(in.Imm, c.Regs[in.Reg%NumRegs]); err != nil {
			return err
		}
	case isa.OpJmp:
		c.charge(cycles.ALUOp)
		next = c.RIP + uint64(int64(in.Rel))
	case isa.OpCall:
		c.Regs[SP] -= 8
		if err := c.Write64(c.Regs[SP], next); err != nil {
			return err
		}
		next = c.RIP + uint64(int64(in.Rel))
	case isa.OpRet:
		ret, err := c.Read64(c.Regs[SP])
		if err != nil {
			return err
		}
		c.Regs[SP] += 8
		next = ret
	case isa.OpHlt:
		c.RIP = next
		return ErrHalted
	case isa.OpCpuid:
		c.charge(100)
		c.Regs[0], c.Regs[1], c.Regs[2], c.Regs[3] = 0x0F1DE115, 0x414D44, 0x5345, 0x56
	case isa.OpVmmcall:
		return fmt.Errorf("cpu: vmmcall executed in host mode at %#x", c.RIP)
	case isa.OpMovCR0:
		if err := c.writeCR0(c.Regs[in.Reg%NumRegs]); err != nil {
			return err
		}
	case isa.OpMovCR3:
		if err := c.writeCR3(c.Regs[in.Reg%NumRegs]); err != nil {
			return err
		}
	case isa.OpMovCR4:
		if err := c.writeCR4(c.Regs[in.Reg%NumRegs]); err != nil {
			return err
		}
	case isa.OpWrmsr:
		// Convention: R0 holds the MSR index, R1 the value.
		if err := c.writeMSR(uint32(c.Regs[0]), c.Regs[1]); err != nil {
			return err
		}
	case isa.OpVmrun:
		if c.VMRunFn == nil {
			return fmt.Errorf("cpu: vmrun with no world switch installed")
		}
		c.charge(cycles.VMEntry)
		h := c.Ctl.Telem
		h.M.VMRuns.Inc()
		if h.Tracing() {
			h.Emit(telemetry.KindVMRun, 0, 0, cycles.VMEntry, c.Regs[in.Reg%NumRegs], 0)
		}
		if err := c.VMRunFn(c.Regs[in.Reg%NumRegs]); err != nil {
			return err
		}
	case isa.OpLgdt, isa.OpLidt:
		c.charge(50)
	default:
		return fmt.Errorf("cpu: unimplemented opcode %v", in.Op)
	}
	c.RIP = next
	return nil
}

// Run executes starting at entry until HLT, a fault, or maxInst
// instructions (0 means no limit). It returns nil on a clean HLT.
func (c *CPU) Run(entry uint64, maxInst int) error {
	c.RIP = entry
	for i := 0; maxInst == 0 || i < maxInst; i++ {
		if err := c.Step(); err != nil {
			if err == ErrHalted {
				return nil
			}
			return err
		}
	}
	return fmt.Errorf("cpu: instruction budget exhausted at rip %#x", c.RIP)
}

// writeCR0 applies a CR0 write with hook veto and TLB maintenance.
func (c *CPU) writeCR0(v uint64) error {
	old := c.CR0
	if c.Hooks.CR0Write != nil {
		if err := c.Hooks.CR0Write(c, old, v); err != nil {
			return err
		}
	}
	c.charge(cycles.WPToggle)
	c.CR0 = v
	if old&CR0PG != v&CR0PG {
		c.TLB.FlushAll()
		c.charge(cycles.TLBFlushFull)
	}
	return nil
}

// writeCR3 switches the address space, flushing the TLB (no PCID).
func (c *CPU) writeCR3(v uint64) error {
	old := c.CR3
	if c.Hooks.CR3Write != nil {
		if err := c.Hooks.CR3Write(c, old, v); err != nil {
			return err
		}
	}
	c.CR3 = v
	c.TLB.FlushAll()
	c.charge(cycles.TLBFlushFull)
	return nil
}

func (c *CPU) writeCR4(v uint64) error {
	old := c.CR4
	if c.Hooks.CR4Write != nil {
		if err := c.Hooks.CR4Write(c, old, v); err != nil {
			return err
		}
	}
	c.charge(cycles.WPToggle)
	c.CR4 = v
	return nil
}

func (c *CPU) writeMSR(msr uint32, v uint64) error {
	var old uint64
	if msr == MSREFER {
		old = c.EFER
	}
	if c.Hooks.MSRWrite != nil {
		if err := c.Hooks.MSRWrite(c, msr, old, v); err != nil {
			return err
		}
	}
	c.charge(100)
	if msr == MSREFER {
		c.EFER = v
	}
	return nil
}
