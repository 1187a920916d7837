//go:build !race

package hw

// The AES-NI CTR kernel (ctr_amd64.s), left out of a -race build for the
// reason the XEX kernel is (xex_amd64.go).

// expandKey256 writes the AES-256 encryption schedule of key to enc.
//
//go:noescape
func expandKey256(key *[32]byte, enc *ctrKeys)

// ctrXOR XORs the whole blocks of src with the keystream blocks
// AES(LE64(seq) || BE64(ctr+i)) and writes them to dst, which is at
// least as long and either is src or does not overlap it; eight blocks
// at a time and then one at a time. Trailing sub-block bytes are left
// untouched.
//
//go:noescape
func ctrXOR(k *ctrKeys, seq, ctr uint64, dst, src []byte)
