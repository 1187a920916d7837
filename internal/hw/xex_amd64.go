//go:build !race

package hw

// The AES-NI XEX kernel (xex_amd64.s). A -race build leaves it out: the
// race detector cannot see stores made from assembly, so there every XEX
// runs the instrumented Go loop (xex_other.go).

// kernelSupported reports whether the CPU has AES-NI (CPUID.1:ECX bit 25).
func kernelSupported() bool

// expandKey writes the AES-128 encryption schedule of key to enc and,
// when dec is not nil, the matching AESIMC decryption schedule to dec.
//
//go:noescape
func expandKey(key *[BlockSize]byte, enc, dec *[11][BlockSize]byte)

// xexLine runs the XEX transform over the whole blocks of b in place,
// b[0] at position pos, four blocks at a time and then one at a time;
// trailing sub-block bytes are left untouched.
//
//go:noescape
func xexLine(k *xexKeys, pos uint64, b []byte, encrypt bool)
