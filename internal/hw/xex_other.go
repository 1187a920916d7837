//go:build !amd64 || race

package hw

// Without the AES-NI kernel (another architecture, or a -race build,
// whose detector cannot see stores made from assembly) every XEX runs
// the Go loop; these stand in for the kernel's entry points.

// kernelSupported reports that this build has no XEX kernel.
func kernelSupported() bool { return false }

// expandKey is never called: derive keys the kernel only when it exists.
func expandKey(key *[BlockSize]byte, enc, dec *[11][BlockSize]byte) {
	panic("hw: no XEX kernel in this build")
}

// xexLine is never called: an XEX without a kernel holds cipher.Blocks.
func xexLine(k *xexKeys, pos uint64, b []byte, encrypt bool) {
	panic("hw: no XEX kernel in this build")
}
