//go:build !race

#include "textflag.h"

// The AES-NI XEX kernel. The round keys are an xexKeys: the tweak
// encryption schedule at 0, the data encryption schedule at 176 and the
// data decryption schedule at 352, eleven 16-byte round keys each.
// Register use in xexLine:
//	AX  round keys       BX  pos of the next block
//	SI  next block       CX  whole blocks left
//	X0-X3  tweaks        X4-X7  data blocks       X12  round key

// ROUND4 applies one AES step with the round key at off(AX) to the four
// registers a-d.
#define ROUND4(op, off, a, b, c, d) \
	MOVUPS off(AX), X12; \
	op     X12, a; \
	op     X12, b; \
	op     X12, c; \
	op     X12, d

// ROUND1 applies one AES step with the round key at off(AX) to r.
#define ROUND1(op, off, r) \
	MOVUPS off(AX), X12; \
	op     X12, r

// TWEAK4 sets X0-X3 to the tweaks of the four blocks at BX:
// E_tweak(LE64(pos) || 0^64), pos wrapping at 2^64.
#define TWEAK4 \
	MOVQ BX, X0; \
	LEAQ 16(BX), R8; \
	MOVQ R8, X1; \
	LEAQ 32(BX), R9; \
	MOVQ R9, X2; \
	LEAQ 48(BX), R10; \
	MOVQ R10, X3; \
	ROUND4(PXOR, 0, X0, X1, X2, X3); \
	ROUND4(AESENC, 16, X0, X1, X2, X3); \
	ROUND4(AESENC, 32, X0, X1, X2, X3); \
	ROUND4(AESENC, 48, X0, X1, X2, X3); \
	ROUND4(AESENC, 64, X0, X1, X2, X3); \
	ROUND4(AESENC, 80, X0, X1, X2, X3); \
	ROUND4(AESENC, 96, X0, X1, X2, X3); \
	ROUND4(AESENC, 112, X0, X1, X2, X3); \
	ROUND4(AESENC, 128, X0, X1, X2, X3); \
	ROUND4(AESENC, 144, X0, X1, X2, X3); \
	ROUND4(AESENCLAST, 160, X0, X1, X2, X3)

// TWEAK1 sets X0 to the tweak of the block at BX.
#define TWEAK1 \
	MOVQ BX, X0; \
	ROUND1(PXOR, 0, X0); \
	ROUND1(AESENC, 16, X0); \
	ROUND1(AESENC, 32, X0); \
	ROUND1(AESENC, 48, X0); \
	ROUND1(AESENC, 64, X0); \
	ROUND1(AESENC, 80, X0); \
	ROUND1(AESENC, 96, X0); \
	ROUND1(AESENC, 112, X0); \
	ROUND1(AESENC, 128, X0); \
	ROUND1(AESENC, 144, X0); \
	ROUND1(AESENCLAST, 160, X0)

// LOAD4 loads the four blocks at SI into X4-X7, each XORed with its tweak.
#define LOAD4 \
	MOVOU 0(SI), X4; \
	MOVOU 16(SI), X5; \
	MOVOU 32(SI), X6; \
	MOVOU 48(SI), X7; \
	PXOR  X0, X4; \
	PXOR  X1, X5; \
	PXOR  X2, X6; \
	PXOR  X3, X7

// STORE4 XORs X4-X7 with their tweaks and stores them back at SI.
#define STORE4 \
	PXOR  X0, X4; \
	PXOR  X1, X5; \
	PXOR  X2, X6; \
	PXOR  X3, X7; \
	MOVOU X4, 0(SI); \
	MOVOU X5, 16(SI); \
	MOVOU X6, 32(SI); \
	MOVOU X7, 48(SI)

// func kernelSupported() bool
TEXT ·kernelSupported(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND writes the next round key of the AES-128 schedule in X0 to
// off(BX), rcon being the round constant. X4 must start the schedule
// zero; its low word stays zero.
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	SHUFPS          $0x10, X0, X4; \
	PXOR            X4, X0; \
	SHUFPS          $0x8c, X0, X4; \
	PXOR            X4, X0; \
	PXOR            X1, X0; \
	MOVUPS          X0, off(BX)

// INVERT writes the decryption round key at off(DX): AESIMC of the
// encryption round key at from(BX).
#define INVERT(from, off) \
	MOVUPS from(BX), X1; \
	AESIMC X1, X0; \
	MOVUPS X0, off(DX)

// func expandKey(key *[BlockSize]byte, enc, dec *[11][BlockSize]byte)
TEXT ·expandKey(SB), NOSPLIT, $0-24
	MOVQ   key+0(FP), AX
	MOVQ   enc+8(FP), BX
	MOVQ   dec+16(FP), DX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	PXOR   X4, X4
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	TESTQ  DX, DX
	JZ     expanded
	MOVUPS X0, (DX)
	INVERT(144, 16)
	INVERT(128, 32)
	INVERT(112, 48)
	INVERT(96, 64)
	INVERT(80, 80)
	INVERT(64, 96)
	INVERT(48, 112)
	INVERT(32, 128)
	INVERT(16, 144)
	MOVUPS (BX), X0
	MOVUPS X0, 160(DX)

expanded:
	RET

// func xexLine(k *xexKeys, pos uint64, b []byte, encrypt bool)
TEXT ·xexLine(SB), NOSPLIT, $0-41
	MOVQ    k+0(FP), AX
	MOVQ    pos+8(FP), BX
	MOVQ    b_base+16(FP), SI
	MOVQ    b_len+24(FP), CX
	SHRQ    $4, CX
	MOVBLZX encrypt+40(FP), DX
	TESTQ   DX, DX
	JZ      dec4

enc4:
	CMPQ CX, $4
	JB   enc1
	TWEAK4
	LOAD4
	ROUND4(PXOR, 176, X4, X5, X6, X7)
	ROUND4(AESENC, 192, X4, X5, X6, X7)
	ROUND4(AESENC, 208, X4, X5, X6, X7)
	ROUND4(AESENC, 224, X4, X5, X6, X7)
	ROUND4(AESENC, 240, X4, X5, X6, X7)
	ROUND4(AESENC, 256, X4, X5, X6, X7)
	ROUND4(AESENC, 272, X4, X5, X6, X7)
	ROUND4(AESENC, 288, X4, X5, X6, X7)
	ROUND4(AESENC, 304, X4, X5, X6, X7)
	ROUND4(AESENC, 320, X4, X5, X6, X7)
	ROUND4(AESENCLAST, 336, X4, X5, X6, X7)
	STORE4
	ADDQ $64, SI
	ADDQ $64, BX
	SUBQ $4, CX
	JMP  enc4

enc1:
	TESTQ CX, CX
	JZ    done
	TWEAK1
	MOVOU (SI), X4
	PXOR  X0, X4
	ROUND1(PXOR, 176, X4)
	ROUND1(AESENC, 192, X4)
	ROUND1(AESENC, 208, X4)
	ROUND1(AESENC, 224, X4)
	ROUND1(AESENC, 240, X4)
	ROUND1(AESENC, 256, X4)
	ROUND1(AESENC, 272, X4)
	ROUND1(AESENC, 288, X4)
	ROUND1(AESENC, 304, X4)
	ROUND1(AESENC, 320, X4)
	ROUND1(AESENCLAST, 336, X4)
	PXOR  X0, X4
	MOVOU X4, (SI)
	ADDQ  $16, SI
	ADDQ  $16, BX
	DECQ  CX
	JMP   enc1

dec4:
	CMPQ CX, $4
	JB   dec1
	TWEAK4
	LOAD4
	ROUND4(PXOR, 352, X4, X5, X6, X7)
	ROUND4(AESDEC, 368, X4, X5, X6, X7)
	ROUND4(AESDEC, 384, X4, X5, X6, X7)
	ROUND4(AESDEC, 400, X4, X5, X6, X7)
	ROUND4(AESDEC, 416, X4, X5, X6, X7)
	ROUND4(AESDEC, 432, X4, X5, X6, X7)
	ROUND4(AESDEC, 448, X4, X5, X6, X7)
	ROUND4(AESDEC, 464, X4, X5, X6, X7)
	ROUND4(AESDEC, 480, X4, X5, X6, X7)
	ROUND4(AESDEC, 496, X4, X5, X6, X7)
	ROUND4(AESDECLAST, 512, X4, X5, X6, X7)
	STORE4
	ADDQ $64, SI
	ADDQ $64, BX
	SUBQ $4, CX
	JMP  dec4

dec1:
	TESTQ CX, CX
	JZ    done
	TWEAK1
	MOVOU (SI), X4
	PXOR  X0, X4
	ROUND1(PXOR, 352, X4)
	ROUND1(AESDEC, 368, X4)
	ROUND1(AESDEC, 384, X4)
	ROUND1(AESDEC, 400, X4)
	ROUND1(AESDEC, 416, X4)
	ROUND1(AESDEC, 432, X4)
	ROUND1(AESDEC, 448, X4)
	ROUND1(AESDEC, 464, X4)
	ROUND1(AESDEC, 480, X4)
	ROUND1(AESDEC, 496, X4)
	ROUND1(AESDECLAST, 512, X4)
	PXOR  X0, X4
	MOVOU X4, (SI)
	ADDQ  $16, SI
	ADDQ  $16, BX
	DECQ  CX
	JMP   dec1

done:
	RET
