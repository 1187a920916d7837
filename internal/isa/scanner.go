package isa

// Finding is one privileged opcode byte located by the binary scanner.
type Finding struct {
	Offset int
	Op     Op
	// Aligned reports whether the byte also sits on an instruction
	// boundary of the straight-line disassembly from offset 0. Unaligned
	// findings are the gadgets a control-flow-hijacking attacker could
	// jump into mid-instruction (Section 4.1.2).
	Aligned bool
}

// ScanPrivileged scans a code region for privileged opcode bytes at every
// byte offset, aligned to instruction boundaries or not. This is the
// paper's binary scanner: Fidelius uses it at initialisation to prove that
// each privileged instruction is monopolised — i.e. occurs nowhere in the
// hypervisor's code region except the single sanctioned copy inside
// Fidelius's own gates.
//
// The boundary walk follows Decode's rules without decoding: an opcode
// whose whole encoding fits in the region advances by its length, and an
// unknown or truncated opcode advances one byte, so every byte of an
// undecodable region is a potential boundary.
func ScanPrivileged(code []byte) []Finding {
	boundary := make([]bool, len(code))
	for off := 0; off < len(code); {
		boundary[off] = true
		if n := Op(code[off]).Len(); n != 0 && n <= len(code)-off {
			off += n
		} else {
			off++
		}
	}
	var out []Finding
	for i, b := range code {
		if Privileged(Op(b)) {
			out = append(out, Finding{Offset: i, Op: Op(b), Aligned: boundary[i]})
		}
	}
	return out
}

// Monopolised reports whether the code region contains privileged opcode
// bytes only at the allowed offsets. allowed maps offset to the expected
// opcode. Any extra or mismatched finding fails the check. Alignment is
// irrelevant to the verdict, so this is a single pass over the bytes.
func Monopolised(code []byte, allowed map[int]Op) bool {
	for i, b := range code {
		if !Privileged(Op(b)) {
			continue
		}
		if want, ok := allowed[i]; !ok || want != Op(b) {
			return false
		}
	}
	return true
}
