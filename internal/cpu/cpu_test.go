package cpu

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"fidelius/internal/hw"
	"fidelius/internal/isa"
	"fidelius/internal/mmu"
)

type bumpAlloc struct{ next, max hw.PFN }

func (a *bumpAlloc) AllocFrame() (hw.PFN, error) {
	if a.next >= a.max {
		return 0, errors.New("out of frames")
	}
	f := a.next
	a.next++
	return f, nil
}

// testMachine builds a CPU over `pages` pages of physical memory with an
// identity-mapped host page table (VA == PA) covering all of it, paging and
// WP enabled. Page-table pages are allocated from the top of memory.
func testMachine(t *testing.T, pages int) (*CPU, *mmu.Space, *bumpAlloc) {
	t.Helper()
	ctl := hw.NewController(hw.NewMemory(pages), 512)
	alloc := &bumpAlloc{next: hw.PFN(pages / 2), max: hw.PFN(pages)}
	root, err := alloc.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	sp := &mmu.Space{Ctl: ctl, Root: root}
	zero := make([]byte, hw.PageSize)
	if err := ctl.Write(hw.Access{PA: root.Addr()}, zero); err != nil {
		t.Fatal(err)
	}
	for pfn := hw.PFN(0); pfn < hw.PFN(pages); pfn++ {
		if err := sp.Map(alloc, uint64(pfn.Addr()), mmu.MakePTE(pfn, mmu.FlagP|mmu.FlagW)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(ctl)
	c.CR3 = uint64(root.Addr())
	c.CR0 = CR0PG | CR0WP
	return c, sp, alloc
}

func loadCode(t *testing.T, c *CPU, va uint64, prog []isa.Inst) {
	t.Helper()
	code := isa.Assemble(prog)
	if err := c.WriteVA(va, code); err != nil {
		t.Fatal(err)
	}
}

func TestRunBasicProgram(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpMovImm, Reg: 2, Imm: 0xABCD},
		{Op: isa.OpStore, Reg: 2, Imm: 0x8000},
		{Op: isa.OpMovImm, Reg: 3, Imm: 0},
		{Op: isa.OpLoad, Reg: 3, Imm: 0x8000},
		{Op: isa.OpHlt},
	})
	if err := c.Run(0x1000, 100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 0xABCD {
		t.Fatalf("r3 = %#x, want 0xABCD", c.Regs[3])
	}
}

func TestCallRet(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	c.Regs[SP] = 0x9000
	// 0x1000: call +15 (to 0x100f); hlt
	// 0x100f: movi r1, 7; ret
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpCall, Rel: 15}, // call is 5 bytes; jmp/call rel from inst start
		{Op: isa.OpHlt},
	})
	loadCode(t, c, 0x100f, []isa.Inst{
		{Op: isa.OpMovImm, Reg: 1, Imm: 7},
		{Op: isa.OpRet},
	})
	if err := c.Run(0x1000, 100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[1] != 7 {
		t.Fatalf("r1 = %d, want 7", c.Regs[1])
	}
	if c.Regs[SP] != 0x9000 {
		t.Fatalf("stack imbalance: sp=%#x", c.Regs[SP])
	}
}

func TestJmpLoop(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	// alu; jmp -2 — infinite loop, must exhaust budget.
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpALU, Reg: 1},
		{Op: isa.OpJmp, Rel: -2},
	})
	err := c.Run(0x1000, 10)
	if err == nil || err == ErrHalted {
		t.Fatalf("expected budget exhaustion, got %v", err)
	}
}

func TestWPBlocksSupervisorWrite(t *testing.T) {
	c, sp, _ := testMachine(t, 64)
	// Make page 8 read-only.
	if err := sp.SetLeaf(0x8000, mmu.MakePTE(8, mmu.FlagP)); err != nil {
		t.Fatal(err)
	}
	err := c.WriteVA(0x8000, []byte{1})
	var pf *mmu.PageFault
	if !errors.As(err, &pf) || pf.Reason != mmu.WriteProtected {
		t.Fatalf("want WP fault, got %v", err)
	}
	// Clear WP: write goes through.
	if err := c.SetWP(false); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteVA(0x8000, []byte{1}); err != nil {
		t.Fatalf("WP=0 write failed: %v", err)
	}
}

func TestCR0HookVeto(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	c.Hooks.CR0Write = func(c *CPU, old, new uint64) error {
		if old&CR0WP != 0 && new&CR0WP == 0 && !c.TrustedContext {
			return &ProtectionError{Op: "mov cr0", Detail: "WP cannot be cleared"}
		}
		return nil
	}
	// Untrusted clear: vetoed, CR0 unchanged.
	err := c.SetWP(false)
	var pe *ProtectionError
	if !errors.As(err, &pe) {
		t.Fatalf("want ProtectionError, got %v", err)
	}
	if !c.WP() {
		t.Fatal("WP changed despite veto")
	}
	// Trusted clear: allowed.
	c.TrustedContext = true
	if err := c.SetWP(false); err != nil {
		t.Fatal(err)
	}
	if c.WP() {
		t.Fatal("trusted WP clear did not apply")
	}
}

func TestMovCR0Instruction(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpMovImm, Reg: 1, Imm: CR0PG}, // PG on, WP off
		{Op: isa.OpMovCR0, Reg: 1},
		{Op: isa.OpHlt},
	})
	if err := c.Run(0x1000, 100); err != nil {
		t.Fatal(err)
	}
	if c.WP() {
		t.Fatal("mov cr0 did not clear WP")
	}
}

func TestPagingDisableGivesRawAccess(t *testing.T) {
	c, sp, _ := testMachine(t, 64)
	if err := sp.SetLeaf(0x8000, mmu.MakePTE(8, mmu.FlagP)); err != nil { // read-only
		t.Fatal(err)
	}
	c.TLB.FlushAll()
	if err := c.WriteVA(0x8000, []byte{1}); err == nil {
		t.Fatal("expected WP fault")
	}
	// Disabling paging removes all protection — the attack the MOV CR0
	// PG policy exists to stop.
	c.CR0 &^= CR0PG
	if err := c.WriteVA(0x8000, []byte{1}); err != nil {
		t.Fatalf("raw write failed: %v", err)
	}
}

func TestNXAndNXEInteraction(t *testing.T) {
	c, sp, _ := testMachine(t, 64)
	if err := sp.SetLeaf(0x8000, mmu.MakePTE(8, mmu.FlagP|mmu.FlagW|mmu.FlagNX)); err != nil {
		t.Fatal(err)
	}
	loadCode(t, c, 0x8000, []isa.Inst{{Op: isa.OpHlt}})
	err := c.Run(0x8000, 10)
	var pf *mmu.PageFault
	if !errors.As(err, &pf) || pf.Reason != mmu.NXViolation {
		t.Fatalf("want NX fault, got %v", err)
	}
	// Clearing EFER.NXE disables NX enforcement — the WRMSR attack.
	c.EFER &^= EFERNXE
	c.TLB.FlushAll()
	if err := c.Run(0x8000, 10); err != nil {
		t.Fatalf("with NXE clear execution should proceed: %v", err)
	}
}

func TestWRMSRHook(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	c.Hooks.MSRWrite = func(c *CPU, msr uint32, old, new uint64) error {
		if msr == MSREFER && old&EFERNXE != 0 && new&EFERNXE == 0 {
			return &ProtectionError{Op: "wrmsr", Detail: "NXE cannot be cleared"}
		}
		return nil
	}
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpMovImm, Reg: 0, Imm: MSREFER},
		{Op: isa.OpMovImm, Reg: 1, Imm: 0},
		{Op: isa.OpWrmsr},
		{Op: isa.OpHlt},
	})
	err := c.Run(0x1000, 100)
	var pe *ProtectionError
	if !errors.As(err, &pe) {
		t.Fatalf("want ProtectionError, got %v", err)
	}
	if c.EFER&EFERNXE == 0 {
		t.Fatal("EFER changed despite veto")
	}
}

func TestSMEPBlocksUserPageExec(t *testing.T) {
	c, sp, _ := testMachine(t, 64)
	if err := sp.SetLeaf(0x8000, mmu.MakePTE(8, mmu.FlagP|mmu.FlagW|mmu.FlagU)); err != nil {
		t.Fatal(err)
	}
	loadCode(t, c, 0x8000, []isa.Inst{{Op: isa.OpHlt}})
	c.CR4 |= CR4SMEP
	c.TLB.FlushAll()
	if err := c.Run(0x8000, 10); err == nil {
		t.Fatal("SMEP should block supervisor exec of user page")
	}
	c.CR4 &^= CR4SMEP
	c.TLB.FlushAll()
	if err := c.Run(0x8000, 10); err != nil {
		t.Fatalf("without SMEP should run: %v", err)
	}
}

func TestCR3SwitchChangesSpaceAndFlushesTLB(t *testing.T) {
	c, _, alloc := testMachine(t, 128)
	// Build a second space with a different mapping for VA 0x8000.
	root2, _ := alloc.AllocFrame()
	zero := make([]byte, hw.PageSize)
	if err := c.Ctl.Write(hw.Access{PA: root2.Addr()}, zero); err != nil {
		t.Fatal(err)
	}
	sp2 := &mmu.Space{Ctl: c.Ctl, Root: root2}
	for pfn := hw.PFN(0); pfn < 64; pfn++ {
		target := pfn
		if pfn == 8 {
			target = 9 // VA 0x8000 -> PA 0x9000 in space 2
		}
		if err := sp2.Map(alloc, uint64(pfn.Addr()), mmu.MakePTE(target, mmu.FlagP|mmu.FlagW)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Ctl.Write(hw.Access{PA: 0x9000}, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ctl.Write(hw.Access{PA: 0x8000}, []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	c.ReadVA(0x8000, b[:])
	if b[0] != 0x11 {
		t.Fatalf("space 1 read got %#x", b[0])
	}
	flushes := c.TLB.FullFlushes
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpMovImm, Reg: 1, Imm: uint64(root2.Addr())},
		{Op: isa.OpMovCR3, Reg: 1},
		{Op: isa.OpHlt},
	})
	if err := c.Run(0x1000, 10); err != nil {
		t.Fatal(err)
	}
	if c.TLB.FullFlushes != flushes+1 {
		t.Fatal("CR3 switch must flush the TLB")
	}
	c.ReadVA(0x8000, b[:])
	if b[0] != 0xEE {
		t.Fatalf("space 2 read got %#x, want 0xEE", b[0])
	}
}

func TestMovCR3AtPageEndFaultsIfNextPageUnmapped(t *testing.T) {
	// The Section 4.1.2 subtlety: mov CR3 placed at the end of a page
	// whose successor is not mapped in the *new* address space faults on
	// the continuation fetch.
	c, _, alloc := testMachine(t, 128)
	root2, _ := alloc.AllocFrame()
	zero := make([]byte, hw.PageSize)
	if err := c.Ctl.Write(hw.Access{PA: root2.Addr()}, zero); err != nil {
		t.Fatal(err)
	}
	sp2 := &mmu.Space{Ctl: c.Ctl, Root: root2}
	// Space 2 maps ONLY page 1 (the code page), not page 2.
	if err := sp2.Map(alloc, 0x1000, mmu.MakePTE(1, mmu.FlagP|mmu.FlagW)); err != nil {
		t.Fatal(err)
	}
	// Code: movi r1, root2; (at 0x1ffe) mov cr3 r1; (at 0x2000) hlt.
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpMovImm, Reg: 1, Imm: uint64(root2.Addr())},
		{Op: isa.OpJmp, Rel: int32(0x1ffe - 0x100a)},
	})
	loadCode(t, c, 0x1ffe, []isa.Inst{{Op: isa.OpMovCR3, Reg: 1}})
	loadCode(t, c, 0x2000, []isa.Inst{{Op: isa.OpHlt}})
	err := c.Run(0x1000, 10)
	var pf *mmu.PageFault
	if !errors.As(err, &pf) {
		t.Fatalf("want page fault on continuation fetch, got %v", err)
	}
	if pf.VA != 0x2000 {
		t.Fatalf("fault at %#x, want 0x2000", pf.VA)
	}
}

func TestFetchFromUnmappedPageFaults(t *testing.T) {
	c, sp, _ := testMachine(t, 64)
	if err := sp.Unmap(0x5000); err != nil {
		t.Fatal(err)
	}
	c.TLB.FlushAll()
	err := c.Run(0x5000, 10)
	var pf *mmu.PageFault
	if !errors.As(err, &pf) || pf.Access != mmu.Execute {
		t.Fatalf("want execute fault, got %v", err)
	}
}

func TestAddrHookFires(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	fired := false
	c.Hooks.Addr = map[uint64]func(*CPU) error{
		0x1001: func(c *CPU) error { fired = true; return nil },
	}
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpNop},
		{Op: isa.OpHlt},
	})
	if err := c.Run(0x1000, 10); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("address hook did not fire")
	}
}

func TestPageFaultHandlerRetries(t *testing.T) {
	c, sp, _ := testMachine(t, 64)
	if err := sp.SetLeaf(0x8000, mmu.MakePTE(8, mmu.FlagP)); err != nil { // read-only
		t.Fatal(err)
	}
	calls := 0
	c.PageFaultFn = func(c *CPU, f *mmu.PageFault) bool {
		calls++
		// Fix up: make it writable (as a Fidelius handler would after a
		// policy check).
		if err := sp.SetLeaf(mmu.PageBase(f.VA), mmu.MakePTE(8, mmu.FlagP|mmu.FlagW)); err != nil {
			return false
		}
		return true
	}
	if err := c.WriteVA(0x8000, []byte{1}); err != nil {
		t.Fatalf("handled fault should retry: %v", err)
	}
	if calls != 1 {
		t.Fatalf("handler called %d times, want 1", calls)
	}
}

func TestVMRunDispatch(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	var got uint64
	c.VMRunFn = func(pa uint64) error { got = pa; return nil }
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpMovImm, Reg: 2, Imm: 0xB000},
		{Op: isa.OpVmrun, Reg: 2},
		{Op: isa.OpHlt},
	})
	if err := c.Run(0x1000, 10); err != nil {
		t.Fatal(err)
	}
	if got != 0xB000 {
		t.Fatalf("vmrun got pa %#x", got)
	}
}

// roundTrip encodes v into its binary form and decodes it back.
func roundTrip(v *VMCB) *VMCB {
	var b [VMCBSize]byte
	v.encode(&b)
	got := new(VMCB)
	got.decode(&b)
	return got
}

func TestVMCBRoundTrip(t *testing.T) {
	v := &VMCB{
		ExitCode: ExitNPF, ExitInfo1: 0x1, ExitInfo2: 0xdead000,
		GuestASID: 5, NPTRoot: 0x7000, Intercepts: 0xFF, SEVEnabled: true,
		RIP: 0x1234, RSP: 0x9000, CR0: CR0PG, CR3: 0x2000, CR4: CR4SMEP, EFER: EFERNXE,
	}
	for i := range v.Regs {
		v.Regs[i] = uint64(i * 1111)
	}
	if got := roundTrip(v); !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, v)
	}
}

func TestVMCBMemoryRoundTrip(t *testing.T) {
	ctl := hw.NewController(hw.NewMemory(4), 0)
	v := &VMCB{ExitCode: ExitCPUID, GuestASID: 3, RIP: 42}
	if err := StoreVMCB(ctl, 0x1000, v); err != nil {
		t.Fatal(err)
	}
	got, err := LoadVMCB(ctl, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatal("memory round trip mismatch")
	}
}

func TestPropertyVMCBRoundTrip(t *testing.T) {
	f := func(exit uint8, asid uint32, info1, info2, rip, cr3 uint64, regs [NumRegs]uint64, sev bool) bool {
		v := &VMCB{
			ExitCode: ExitReason(exit), GuestASID: asid,
			ExitInfo1: info1, ExitInfo2: info2, RIP: rip, CR3: cr3,
			Regs: regs, SEVEnabled: sev,
		}
		return reflect.DeepEqual(roundTrip(v), v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExitReasonString(t *testing.T) {
	if ExitNPF.String() != "npf" || ExitVMMCALL.String() != "vmmcall" {
		t.Fatal("exit reason names")
	}
	if ExitReason(99).String() != "exit(99)" {
		t.Fatal("unknown exit reason")
	}
}

func TestCPUIDInstruction(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	loadCode(t, c, 0x1000, []isa.Inst{
		{Op: isa.OpCpuid},
		{Op: isa.OpHlt},
	})
	if err := c.Run(0x1000, 10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[0] != 0x0F1DE115 {
		t.Fatalf("cpuid r0 = %#x", c.Regs[0])
	}
}

func TestVmmcallInHostModeErrors(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	loadCode(t, c, 0x1000, []isa.Inst{{Op: isa.OpVmmcall}})
	if err := c.Run(0x1000, 10); err == nil {
		t.Fatal("vmmcall in host mode should error")
	}
}

func TestInvalidOpcode(t *testing.T) {
	c, _, _ := testMachine(t, 64)
	if err := c.WriteVA(0x1000, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0x1000, 10); err == nil {
		t.Fatal("invalid opcode should error")
	}
}

// SetWP sets or clears CR0.WP directly through the same hook path as the
// MOV CR0 instruction.
func (c *CPU) SetWP(on bool) error {
	v := c.CR0 &^ CR0WP
	if on {
		v |= CR0WP
	}
	return c.writeCR0(v)
}
