// Package isa defines the simulator's instruction set, its binary encoding,
// and the binary scanner Fidelius uses to prove privileged-instruction
// monopolisation.
//
// The machine does not need a full x86 model: what the paper's mechanism
// depends on is (a) privileged instructions with a recognisable binary
// encoding that can occur at arbitrary byte offsets inside other
// instructions' operands, and (b) variable-length encodings so that "no
// matter aligned to instruction boundaries or not" (Section 4.1.2) is a
// meaningful scan. The ISA therefore has variable-length instructions and
// reserves the 0xF0-0xFF opcode space for privileged operations.
package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op is an opcode byte.
type Op byte

// Unprivileged opcodes.
const (
	OpNop     Op = 0x01 // 1 byte
	OpALU     Op = 0x02 // 2 bytes: op, fn
	OpLoad    Op = 0x03 // 10 bytes: op, reg, addr64
	OpStore   Op = 0x04 // 10 bytes: op, reg, addr64
	OpJmp     Op = 0x05 // 5 bytes: op, rel32
	OpCall    Op = 0x06 // 5 bytes: op, rel32
	OpRet     Op = 0x07 // 1 byte
	OpHlt     Op = 0x08 // 1 byte
	OpCpuid   Op = 0x09 // 1 byte
	OpVmmcall Op = 0x0A // 1 byte (hypercall)
	OpMovImm  Op = 0x0B // 10 bytes: op, reg, imm64
)

// Privileged opcodes (Table 2 of the paper, plus the execute-once pair).
const (
	OpMovCR0 Op = 0xF0 // 2 bytes: op, reg — may disable PG and WP
	OpMovCR3 Op = 0xF1 // 2 bytes — may switch address space
	OpMovCR4 Op = 0xF2 // 2 bytes — may disable SMEP
	OpWrmsr  Op = 0xF3 // 2 bytes — may disable NX (EFER.NXE)
	OpVmrun  Op = 0xF4 // 2 bytes — may change the control flow
	OpLgdt   Op = 0xF5 // 2 bytes — execute-once
	OpLidt   Op = 0xF6 // 2 bytes — execute-once
)

// Privileged reports whether op is in the privileged opcode space.
func Privileged(op Op) bool { return op >= 0xF0 }

// names for diagnostics.
var names = map[Op]string{
	OpNop: "nop", OpALU: "alu", OpLoad: "load", OpStore: "store",
	OpJmp: "jmp", OpCall: "call", OpRet: "ret", OpHlt: "hlt",
	OpCpuid: "cpuid", OpVmmcall: "vmmcall", OpMovImm: "movimm",
	OpMovCR0: "mov cr0", OpMovCR3: "mov cr3", OpMovCR4: "mov cr4",
	OpWrmsr: "wrmsr", OpVmrun: "vmrun", OpLgdt: "lgdt", OpLidt: "lidt",
}

// String returns the mnemonic for the opcode.
func (op Op) String() string {
	if s, ok := names[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%#x)", byte(op))
}

// Len returns the encoded length of an instruction with this opcode, or 0
// if the opcode is unknown.
func (op Op) Len() int {
	switch op {
	case OpNop, OpRet, OpHlt, OpCpuid, OpVmmcall:
		return 1
	case OpALU, OpMovCR0, OpMovCR3, OpMovCR4, OpWrmsr, OpVmrun, OpLgdt, OpLidt:
		return 2
	case OpJmp, OpCall:
		return 5
	case OpLoad, OpStore, OpMovImm:
		return 10
	}
	return 0
}

// Inst is a decoded instruction.
type Inst struct {
	Op  Op
	Reg uint8  // register operand for 2- and 10-byte forms
	Imm uint64 // immediate / address for 10-byte forms
	Rel int32  // relative displacement for jmp/call
}

// ErrBadEncoding reports an undecodable byte sequence.
var ErrBadEncoding = errors.New("isa: bad encoding")

// Encode appends the binary encoding of the instruction to dst.
func (i Inst) Encode(dst []byte) []byte {
	switch l := i.Op.Len(); l {
	case 1:
		return append(dst, byte(i.Op))
	case 2:
		return append(dst, byte(i.Op), i.Reg)
	case 5:
		var b [5]byte
		b[0] = byte(i.Op)
		binary.LittleEndian.PutUint32(b[1:], uint32(i.Rel))
		return append(dst, b[:]...)
	case 10:
		var b [10]byte
		b[0] = byte(i.Op)
		b[1] = i.Reg
		binary.LittleEndian.PutUint64(b[2:], i.Imm)
		return append(dst, b[:]...)
	default:
		panic(fmt.Sprintf("isa: encoding unknown opcode %v", i.Op))
	}
}

// Decode decodes one instruction from b, returning it and its length.
func Decode(b []byte) (Inst, int, error) {
	if len(b) == 0 {
		return Inst{}, 0, fmt.Errorf("%w: empty", ErrBadEncoding)
	}
	op := Op(b[0])
	l := op.Len()
	if l == 0 {
		return Inst{}, 0, fmt.Errorf("%w: opcode %#x", ErrBadEncoding, b[0])
	}
	if len(b) < l {
		return Inst{}, 0, fmt.Errorf("%w: truncated %v", ErrBadEncoding, op)
	}
	in := Inst{Op: op}
	switch l {
	case 2:
		in.Reg = b[1]
	case 5:
		in.Rel = int32(binary.LittleEndian.Uint32(b[1:]))
	case 10:
		in.Reg = b[1]
		in.Imm = binary.LittleEndian.Uint64(b[2:])
	}
	return in, l, nil
}

// Assemble encodes a sequence of instructions.
func Assemble(prog []Inst) []byte {
	var out []byte
	for _, i := range prog {
		out = i.Encode(out)
	}
	return out
}
