//go:build !amd64 || race

package hw

// Without the AES-NI kernel every CTR runs cipher.NewCTR; these stand in
// for the kernel's entry points.

// expandKey256 is never called: expand keys the kernel only when it
// exists.
func expandKey256(key *[32]byte, enc *ctrKeys) {
	panic("hw: no CTR kernel in this build")
}

// ctrXOR is never called: a CTR without a kernel holds a cipher.Block.
func ctrXOR(k *ctrKeys, seq, ctr uint64, dst, src []byte) {
	panic("hw: no CTR kernel in this build")
}
