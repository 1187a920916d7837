package hw

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// CTR is the AES-256 counter-mode keystream of SEV's transport packets:
// block i of the packet numbered seq is XORed with
// AES(key, LE64(seq) || BE64(i)), which is what cipher.NewCTR gives for
// the IV LE64(seq) || 0^64 over any packet shorter than 2^64 blocks. It
// is safe for concurrent use: nothing in it changes after NewCTR.
//
// Like XEX, a CTR runs one of two paths, chosen once when it is built.
// Where the AES-NI kernel exists (amd64 with AES-NI, outside a -race
// build) it holds the fifteen AES-256 round keys and hands them to the
// kernel by reference, so a packet allocates nothing. Otherwise it holds
// a cipher.Block and builds one cipher.NewCTR stream per packet. The
// zero CTR holds no key, and XORKeyStream panics on it.
type CTR struct {
	keys   ctrKeys
	kernel bool
	block  cipher.Block
}

// ctrKeys is the AES-256 encryption schedule the kernel runs on: fifteen
// round keys, the first two being the key itself.
type ctrKeys [15][BlockSize]byte

// HaveKernels reports whether NewXEX and NewCTR build values that run
// the AES-NI kernels: amd64 with AES-NI, outside a -race build.
func HaveKernels() bool { return haveKernel }

// NewCTR expands a 32-byte AES-256 key for the kernel, or into a
// cipher.Block where this build or CPU has none.
func NewCTR(key [32]byte) CTR {
	var c CTR
	c.expand(key, haveKernel)
	return c
}

// expand keys c for the kernel, or for the cipher.NewCTR path when
// useKernel is false.
func (c *CTR) expand(key [32]byte, useKernel bool) {
	if useKernel {
		expandKey256(&key, &c.keys)
		c.kernel = true
		return
	}
	// A 32-byte key is always a valid AES-256 key.
	c.block, _ = aes.NewCipher(key[:])
}

// XORKeyStream XORs src with the keystream of the packet numbered seq
// and writes the result to dst, which must be at least len(src) bytes
// and either be src or not overlap it. Encrypting and decrypting are the
// same operation. A keystream is only safe once per seq.
func (c *CTR) XORKeyStream(seq uint64, dst, src []byte) {
	if len(dst) < len(src) {
		panic("hw: CTR output smaller than input")
	}
	if !c.kernel {
		c.stream(seq, dst, src)
		return
	}
	whole := len(src) &^ (BlockSize - 1)
	ctrXOR(&c.keys, seq, 0, dst[:whole], src[:whole])
	if whole == len(src) {
		return
	}
	// The kernel runs whole blocks only: the last sub-block bytes are
	// XORed in a stack block, which the kernel's noescape entry leaves
	// on the stack.
	var tail [BlockSize]byte
	n := copy(tail[:], src[whole:])
	ctrXOR(&c.keys, seq, uint64(whole/BlockSize), tail[:], tail[:])
	copy(dst[whole:], tail[:n])
}

// stream is the cipher.NewCTR path. The IV is staged in dst's first
// block, as the XEX Go loop stages its tweak in the caller's block: a
// local array handed to cipher.NewCTR, which keeps the IV through an
// interface call, would move to the heap on every packet, leaving the
// stream state the one allocation. src's first block is saved first and
// restored before the stream runs, so dst may be src.
func (c *CTR) stream(seq uint64, dst, src []byte) {
	if c.block == nil {
		panic("hw: CTR holds no key")
	}
	if len(src) < BlockSize {
		var iv [BlockSize]byte
		binary.LittleEndian.PutUint64(iv[:8], seq)
		cipher.NewCTR(c.block, iv[:]).XORKeyStream(dst, src)
		return
	}
	le := binary.LittleEndian
	lo, hi := le.Uint64(src[:8]), le.Uint64(src[8:BlockSize])
	iv := dst[:BlockSize:BlockSize]
	le.PutUint64(iv[:8], seq)
	le.PutUint64(iv[8:], 0)
	s := cipher.NewCTR(c.block, iv)
	le.PutUint64(iv[:8], lo)
	le.PutUint64(iv[8:], hi)
	s.XORKeyStream(dst, src)
}
