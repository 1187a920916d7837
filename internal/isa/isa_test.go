package isa

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	prog := []Inst{
		{Op: OpNop},
		{Op: OpALU, Reg: 3},
		{Op: OpMovImm, Reg: 1, Imm: 0xDEADBEEFCAFE},
		{Op: OpLoad, Reg: 2, Imm: 0x1000},
		{Op: OpStore, Reg: 2, Imm: 0x2000},
		{Op: OpJmp, Rel: -12},
		{Op: OpCall, Rel: 1 << 20},
		{Op: OpCpuid},
		{Op: OpVmmcall},
		{Op: OpMovCR0, Reg: 4},
		{Op: OpMovCR3, Reg: 5},
		{Op: OpVmrun, Reg: 6},
		{Op: OpRet},
		{Op: OpHlt},
	}
	code := Assemble(prog)
	got, err := Disassemble(code)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, prog) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, prog)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, _, err := Decode([]byte{0xEE}); err == nil {
		t.Fatal("expected error for unknown opcode")
	}
	if _, _, err := Decode([]byte{byte(OpLoad), 1, 2}); err == nil {
		t.Fatal("expected error for truncated instruction")
	}
}

func TestPrivilegedClassification(t *testing.T) {
	for _, op := range []Op{OpMovCR0, OpMovCR3, OpMovCR4, OpWrmsr, OpVmrun, OpLgdt, OpLidt} {
		if !Privileged(op) {
			t.Errorf("%v should be privileged", op)
		}
	}
	for _, op := range []Op{OpNop, OpALU, OpLoad, OpStore, OpJmp, OpCall, OpRet, OpHlt, OpCpuid, OpVmmcall, OpMovImm} {
		if Privileged(op) {
			t.Errorf("%v should not be privileged", op)
		}
	}
}

func TestScannerFindsAlignedInstruction(t *testing.T) {
	code := Assemble([]Inst{
		{Op: OpNop},
		{Op: OpMovCR3, Reg: 1},
		{Op: OpRet},
	})
	fs := ScanPrivileged(code)
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(fs), fs)
	}
	if fs[0].Op != OpMovCR3 || fs[0].Offset != 1 || !fs[0].Aligned {
		t.Fatalf("unexpected finding %+v", fs[0])
	}
}

func TestScannerFindsUnalignedGadget(t *testing.T) {
	// A privileged opcode hidden inside a MOVI immediate: an attacker who
	// jumps into the middle of the instruction executes VMRUN.
	code := Assemble([]Inst{
		{Op: OpMovImm, Reg: 0, Imm: uint64(OpVmrun) | uint64(OpNop)<<8},
		{Op: OpRet},
	})
	fs := ScanPrivileged(code)
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(fs), fs)
	}
	if fs[0].Op != OpVmrun || fs[0].Aligned {
		t.Fatalf("expected unaligned vmrun gadget, got %+v", fs[0])
	}
	if fs[0].Offset != 2 {
		t.Fatalf("gadget at offset %d, want 2", fs[0].Offset)
	}
}

func TestMonopolised(t *testing.T) {
	code := Assemble([]Inst{
		{Op: OpNop},
		{Op: OpVmrun, Reg: 0},
	})
	if !Monopolised(code, map[int]Op{1: OpVmrun}) {
		t.Fatal("sanctioned copy should pass")
	}
	if Monopolised(code, nil) {
		t.Fatal("unsanctioned privileged instruction should fail")
	}
	if Monopolised(code, map[int]Op{1: OpMovCR0}) {
		t.Fatal("opcode mismatch should fail")
	}
}

func TestMonopolisedCatchesHiddenGadget(t *testing.T) {
	code := Assemble([]Inst{
		{Op: OpMovImm, Reg: 0, Imm: uint64(OpMovCR0)},
		{Op: OpRet},
	})
	if Monopolised(code, nil) {
		t.Fatal("scanner missed a privileged byte inside an immediate")
	}
}

func TestPropertyDecodeNeverPanicsAndLengthsAgree(t *testing.T) {
	f := func(b []byte) bool {
		in, n, err := Decode(b)
		if err != nil {
			return n == 0
		}
		if n != in.Op.Len() {
			return false
		}
		// Re-encoding the decoded instruction reproduces the prefix.
		enc := in.Encode(nil)
		if len(enc) != n {
			return false
		}
		for i := range enc {
			if enc[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScannerCompleteness(t *testing.T) {
	// Every privileged byte value present anywhere in the region must be
	// reported, whatever surrounds it.
	f := func(pre, post []byte, privIdx uint8) bool {
		op := Op(0xF0 + privIdx%7)
		code := append(append(append([]byte{}, pre...), byte(op)), post...)
		for _, f := range ScanPrivileged(code) {
			if f.Offset == len(pre) && f.Op == op {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOpStringAndLen(t *testing.T) {
	if OpMovCR3.String() != "mov cr3" {
		t.Fatalf("got %q", OpMovCR3.String())
	}
	if Op(0xEE).String() != "op(0xee)" {
		t.Fatalf("got %q", Op(0xEE).String())
	}
	if Op(0xEE).Len() != 0 {
		t.Fatal("unknown opcode must have length 0")
	}
}

// scanPrivilegedDecode is the original Decode-driven scanner, kept as the
// reference the byte-level ScanPrivileged must agree with.
func scanPrivilegedDecode(code []byte) []Finding {
	boundaries := make(map[int]bool)
	for off := 0; off < len(code); {
		boundaries[off] = true
		_, n, err := Decode(code[off:])
		if err != nil {
			off++
			continue
		}
		off += n
	}
	var out []Finding
	for i, b := range code {
		if Privileged(Op(b)) {
			out = append(out, Finding{Offset: i, Op: Op(b), Aligned: boundaries[i]})
		}
	}
	return out
}

// monopolisedDecode is the original Monopolised, over the reference scan.
func monopolisedDecode(code []byte, allowed map[int]Op) bool {
	for _, f := range scanPrivilegedDecode(code) {
		want, ok := allowed[f.Offset]
		if !ok || want != f.Op {
			return false
		}
	}
	return true
}

// opAlphabet biases generated code towards real encodings: every opcode,
// undecodable bytes, and the zero padding a code page is mostly made of.
var opAlphabet = []byte{
	0x00, 0x00, 0x00, 0x0C, 0xEE, 0xF7, 0xFF,
	byte(OpNop), byte(OpALU), byte(OpLoad), byte(OpStore), byte(OpJmp),
	byte(OpCall), byte(OpRet), byte(OpHlt), byte(OpCpuid), byte(OpVmmcall),
	byte(OpMovImm), byte(OpMovCR0), byte(OpMovCR3), byte(OpMovCR4),
	byte(OpWrmsr), byte(OpVmrun), byte(OpLgdt), byte(OpLidt),
}

func TestPropertyScannerMatchesDecodeReference(t *testing.T) {
	f := func(raw []byte, biased bool, allowMask, wrongMask uint64) bool {
		code := raw
		if biased {
			code = make([]byte, len(raw))
			for i, b := range raw {
				code[i] = opAlphabet[int(b)%len(opAlphabet)]
			}
		}
		want := scanPrivilegedDecode(code)
		if got := ScanPrivileged(code); !reflect.DeepEqual(got, want) {
			t.Logf("code %x\n got %+v\nwant %+v", code, got, want)
			return false
		}
		// Sanction a subset of the findings, some with the wrong opcode,
		// plus one offset that holds no privileged byte at all.
		allowed := map[int]Op{len(code): OpVmrun}
		for i, fd := range want {
			if allowMask>>(i%64)&1 == 0 {
				continue
			}
			op := fd.Op
			if wrongMask>>(i%64)&1 == 1 {
				op ^= 1
			}
			allowed[fd.Offset] = op
		}
		return Monopolised(code, allowed) == monopolisedDecode(code, allowed) &&
			Monopolised(code, nil) == monopolisedDecode(code, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
