package hw

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
)

// XEX is the tweaked-block construction behind memory, disk and SEV I/O
// encryption: each 16-byte block at position pos is encrypted as
// E_data(P ^ T) ^ T with T = E_tweak(LE64(pos) || 0^64), pos being the
// block's physical address for memory, its byte offset for a disk image
// and seq*PageSize plus its offset for an I/O chunk. It is safe for
// concurrent use: nothing in it changes after construction.
//
// An XEX runs one of two loops over the same bytes, chosen once when it
// is built. Where the AES-NI kernel exists (amd64 with AES-NI, outside
// a -race build) it holds only the kernel's expanded round keys, and
// data and tweak stay nil. Otherwise it holds a cipher.Block per subkey
// and runs the Go loop.
type XEX struct {
	keys        xexKeys
	data, tweak cipher.Block
}

// xexKeys are the AES-128 round keys the kernel runs on: the tweak
// subkey's encryption schedule and the data subkey's encryption and
// decryption (AESIMC) schedules, eleven round keys each. Round key 0 of
// an encryption schedule is the subkey itself.
type xexKeys struct {
	tweak, enc, dec [11][BlockSize]byte
}

// haveKernel reports whether NewXEX builds XEX values that run the AES-NI
// kernel.
var haveKernel = kernelSupported()

// NewXEX derives the construction's data and tweak AES-128 subkeys from
// a 32-byte key, each the first half of the SHA-256 of its label
// followed by the key.
func NewXEX(key [32]byte, dataLabel, tweakLabel string) *XEX {
	x := new(XEX)
	x.derive(key, dataLabel, tweakLabel, haveKernel)
	return x
}

// derive keys x for the kernel, or for the Go loop when useKernel is
// false.
func (x *XEX) derive(key [32]byte, dataLabel, tweakLabel string, useKernel bool) {
	dk := sha256.Sum256(append([]byte(dataLabel), key[:]...))
	tk := sha256.Sum256(append([]byte(tweakLabel), key[:]...))
	if useKernel {
		expandKey((*[BlockSize]byte)(dk[:]), &x.keys.enc, &x.keys.dec)
		expandKey((*[BlockSize]byte)(tk[:]), &x.keys.tweak, nil)
		return
	}
	// A 16-byte key is always a valid AES-128 key.
	x.data, _ = aes.NewCipher(dk[:16])
	x.tweak, _ = aes.NewCipher(tk[:16])
}

// EncryptLine encrypts the whole blocks of b in place, b[0] sitting at
// position pos (16-byte aligned); trailing sub-block bytes are left
// untouched.
func (x *XEX) EncryptLine(pos uint64, b []byte) { x.line(pos, b, true) }

// DecryptLine inverts EncryptLine.
func (x *XEX) DecryptLine(pos uint64, b []byte) { x.line(pos, b, false) }

// decryptArray is DecryptLine over the first n bytes of a line-sized
// array that must not move to the heap. The kernel decrypts it where it
// lies. The Go loop hands its buffer to a cipher.Block, which would make
// the array escape, so there a copy is decrypted, and only the copy is
// allocated.
func (x *XEX) decryptArray(pos uint64, b *[LineSize]byte, n int) {
	if x.data == nil {
		xexLine(&x.keys, pos, b[:n], false)
		return
	}
	line := *b
	x.line(pos, line[:n], false)
	*b = line
}

// line runs the XEX loop in either direction: the AES-NI kernel, four
// blocks in flight, or the Go loop, one block at a time. The Go loop
// computes the tweak inside the block's own 16 bytes — data saved,
// tweak input written, encrypted in place, data restored XORed with the
// tweak — so no scratch buffer is handed to the cipher.Block interface,
// which would move it to the heap on every call. The XORs are two
// 64-bit words. Both wrap pos+off at 2^64.
func (x *XEX) line(pos uint64, b []byte, encrypt bool) {
	if x.data == nil {
		xexLine(&x.keys, pos, b, encrypt)
		return
	}
	le := binary.LittleEndian
	for off := 0; off+BlockSize <= len(b); off += BlockSize {
		blk := b[off : off+BlockSize : off+BlockSize]
		lo, hi := le.Uint64(blk[:8]), le.Uint64(blk[8:])
		le.PutUint64(blk[:8], pos+uint64(off))
		le.PutUint64(blk[8:], 0)
		x.tweak.Encrypt(blk, blk)
		tlo, thi := le.Uint64(blk[:8]), le.Uint64(blk[8:])
		le.PutUint64(blk[:8], lo^tlo)
		le.PutUint64(blk[8:], hi^thi)
		if encrypt {
			x.data.Encrypt(blk, blk)
		} else {
			x.data.Decrypt(blk, blk)
		}
		le.PutUint64(blk[:8], le.Uint64(blk[:8])^tlo)
		le.PutUint64(blk[8:], le.Uint64(blk[8:])^thi)
	}
}
