package cpu

import (
	"errors"
	"testing"

	"fidelius/internal/hw"
	"fidelius/internal/isa"
	"fidelius/internal/mmu"
)

func TestWRMSRUnknownMSRIsHarmless(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpMovImm, Reg: 0, Imm: 0x1234}, // not EFER
		{Op: isa.OpMovImm, Reg: 1, Imm: 0xFFFF},
		{Op: isa.OpWrmsr},
		{Op: isa.OpHlt},
	})
	before := c.EFER
	if err := c.Run(0x1000, 10); err != nil {
		t.Fatal(err)
	}
	if c.EFER != before {
		t.Fatal("unknown MSR write changed EFER")
	}
}

func TestVMRunWithoutHandlerErrors(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	loadCode(t, c, 0x1000, []isa.Inst{{Op: isa.OpVmrun, Reg: 0}})
	if err := c.Run(0x1000, 10); err == nil {
		t.Fatal("vmrun without world switch should error")
	}
}

func TestAddrHookErrorStopsExecution(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	sentinel := errors.New("checking loop veto")
	c.Hooks.Addr = map[uint64]func(*CPU) error{
		0x1001: func(*CPU) error { return sentinel },
	}
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpNop},
		{Op: isa.OpMovImm, Reg: 1, Imm: 42}, // must never run
		{Op: isa.OpHlt},
	})
	if err := c.Run(0x1000, 10); !errors.Is(err, sentinel) {
		t.Fatalf("want the hook error, got %v", err)
	}
	if c.Regs[1] == 42 {
		t.Fatal("instruction after the vetoing hook executed")
	}
}

func TestExecHookVeto(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	sentinel := errors.New("execute-once veto")
	c.Hooks.Exec = func(c *CPU, addr uint64, op isa.Op) error {
		if op == isa.OpLgdt {
			return sentinel
		}
		return nil
	}
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpNop},
		{Op: isa.OpLgdt, Reg: 0},
		{Op: isa.OpHlt},
	})
	if err := c.Run(0x1000, 10); !errors.Is(err, sentinel) {
		t.Fatalf("want exec veto, got %v", err)
	}
}

func TestLgdtLidtExecuteWhenUnhooked(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpLgdt, Reg: 0},
		{Op: isa.OpLidt, Reg: 0},
		{Op: isa.OpHlt},
	})
	if err := c.Run(0x1000, 10); err != nil {
		t.Fatal(err)
	}
}

func TestTrustedSetWPBypassesVeto(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	c.Hooks.CR0Write = func(c *CPU, old, new uint64) error {
		if !c.TrustedContext && old&CR0WP != 0 && new&CR0WP == 0 {
			return &ProtectionError{Op: "mov cr0", Detail: "WP"}
		}
		return nil
	}
	c.TrustedContext = true
	if err := c.SetWP(false); err != nil {
		t.Fatalf("trusted WP clear vetoed: %v", err)
	}
	if err := c.SetWP(true); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteAcrossPageBoundary(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	data := make([]byte, 5000) // crosses two pages
	for i := range data {
		data[i] = byte(i)
	}
	if err := c.WriteVA(0x7F00, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadVA(0x7F00, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

func TestWriteFaultMidway(t *testing.T) {
	c, sp, _ := testMachine(t, 64)
	// Page 9 read-only: a write spanning pages 8..9 fails partway.
	if err := sp.SetLeaf(0x9000, mmu.MakePTE(9, mmu.FlagP)); err != nil {
		t.Fatal(err)
	}
	c.TLB.FlushAll()
	err := c.WriteVA(0x8F00, make([]byte, 0x200))
	var pf *mmu.PageFault
	if !errors.As(err, &pf) || pf.VA != 0x9000 {
		t.Fatalf("want fault at 0x9000, got %v", err)
	}
}

func TestStepRetryAfterHandledFetchFault(t *testing.T) {
	c, sp, _ := testMachine(t, 64)
	if err := sp.Unmap(0x5000); err != nil {
		t.Fatal(err)
	}
	c.TLB.FlushAll()
	loaded := false
	c.PageFaultFn = func(c *CPU, f *mmu.PageFault) bool {
		if f.Access != mmu.Execute || loaded {
			return false
		}
		// Map the page and install code (demand paging of code).
		if err := sp.Map(nullAlloc{}, 0x5000, mmu.MakePTE(5, mmu.FlagP|mmu.FlagW)); err != nil {
			return false
		}
		c.Ctl.Mem.WriteRaw(0x5000, isa.Inst{Op: isa.OpHlt}.Encode(nil))
		c.TLB.FlushAll()
		loaded = true
		return true
	}
	if err := c.Run(0x5000, 10); err != nil {
		t.Fatalf("demand-paged code should run: %v", err)
	}
}

// nullAlloc never allocates: the demand-paging test maps an existing leaf
// whose intermediate tables already exist.
type nullAlloc struct{}

func (nullAlloc) AllocFrame() (hw.PFN, error) {
	return 0, errors.New("nullAlloc: no frames")
}

// TestVMRunStubAllocsNothing guards the fetch buffer: every quantum
// steps the type-3 VMRUN stub, and the instruction bytes stay on the
// stack instead of escaping as a returned slice.
func TestVMRunStubAllocsNothing(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	runs := 0
	c.VMRunFn = func(pa uint64) error { runs++; return nil }
	loadCode(t, c, 0x1000, []isa.Inst{{Op: isa.OpVmrun, Reg: 0}, {Op: isa.OpHlt}})
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Run(0x1000, 4); err != nil {
			t.Fatal(err)
		}
	})
	if runs < 100 {
		t.Fatalf("the stub ran VMRUN %d times, want one per run", runs)
	}
	if allocs != 0 {
		t.Fatalf("stepping the VMRUN stub allocated %v times per run, want 0", allocs)
	}
}
