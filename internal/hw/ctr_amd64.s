//go:build !race

#include "textflag.h"

// The AES-NI CTR kernel. The round keys are a ctrKeys: the fifteen
// 16-byte round keys of an AES-256 encryption schedule.
// Register use in ctrXOR:
//	AX  round keys        BX  counter of the next block
//	SI  next src block    DI  next dst block      CX  whole blocks left
//	X0-X7  keystream blocks   X8  round key or src block
//	X9  counter half      X14  LE64(seq) || 0^64

// EXPANDA writes the next even round key of the AES-256 schedule, from
// X0 (the last even one) and X2 (the last odd one), to off(BX), rcon
// being the round constant. X4 must start the schedule zero; its low
// word stays zero.
#define EXPANDA(rcon, off) \
	AESKEYGENASSIST $rcon, X2, X1; \
	PSHUFD          $0xff, X1, X1; \
	SHUFPS          $0x10, X0, X4; \
	PXOR            X4, X0; \
	SHUFPS          $0x8c, X0, X4; \
	PXOR            X4, X0; \
	PXOR            X1, X0; \
	MOVUPS          X0, off(BX)

// EXPANDB writes the next odd round key, from X2 and the even one just
// written in X0, to off(BX): SubWord without rotation or round constant.
#define EXPANDB(off) \
	AESKEYGENASSIST $0x00, X0, X1; \
	PSHUFD          $0xaa, X1, X1; \
	SHUFPS          $0x10, X2, X4; \
	PXOR            X4, X2; \
	SHUFPS          $0x8c, X2, X4; \
	PXOR            X4, X2; \
	PXOR            X1, X2; \
	MOVUPS          X2, off(BX)

// func expandKey256(key *[32]byte, enc *ctrKeys)
TEXT ·expandKey256(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   enc+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS 16(AX), X2
	MOVUPS X0, (BX)
	MOVUPS X2, 16(BX)
	PXOR   X4, X4
	EXPANDA(0x01, 32)
	EXPANDB(48)
	EXPANDA(0x02, 64)
	EXPANDB(80)
	EXPANDA(0x04, 96)
	EXPANDB(112)
	EXPANDA(0x08, 128)
	EXPANDB(144)
	EXPANDA(0x10, 160)
	EXPANDB(176)
	EXPANDA(0x20, 192)
	EXPANDB(208)
	EXPANDA(0x40, 224)
	RET

// COUNTER sets r to the counter block of the block j after BX:
// LE64(seq) || BE64(BX+j).
#define COUNTER(j, r) \
	LEAQ       j(BX), R8; \
	BSWAPQ     R8; \
	MOVQ       R8, X9; \
	MOVOU      X14, r; \
	PUNPCKLQDQ X9, r

// ROUND8 applies one AES step with the round key at off(AX) to X0-X7.
#define ROUND8(op, off) \
	MOVUPS off(AX), X8; \
	op     X8, X0; \
	op     X8, X1; \
	op     X8, X2; \
	op     X8, X3; \
	op     X8, X4; \
	op     X8, X5; \
	op     X8, X6; \
	op     X8, X7

// ROUND1 applies one AES step with the round key at off(AX) to X0.
#define ROUND1(op, off) \
	MOVUPS off(AX), X8; \
	op     X8, X0

// XOR1 XORs the src block at off(SI) with the keystream block r and
// stores it at off(DI).
#define XOR1(off, r) \
	MOVOU off(SI), X8; \
	PXOR  X8, r; \
	MOVOU r, off(DI)

// func ctrXOR(k *ctrKeys, seq, ctr uint64, dst, src []byte)
TEXT ·ctrXOR(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), AX
	MOVQ seq+8(FP), X14
	MOVQ ctr+16(FP), BX
	MOVQ dst_base+24(FP), DI
	MOVQ src_base+48(FP), SI
	MOVQ src_len+56(FP), CX
	SHRQ $4, CX

loop8:
	CMPQ CX, $8
	JB   loop1
	COUNTER(0, X0)
	COUNTER(1, X1)
	COUNTER(2, X2)
	COUNTER(3, X3)
	COUNTER(4, X4)
	COUNTER(5, X5)
	COUNTER(6, X6)
	COUNTER(7, X7)
	ROUND8(PXOR, 0)
	ROUND8(AESENC, 16)
	ROUND8(AESENC, 32)
	ROUND8(AESENC, 48)
	ROUND8(AESENC, 64)
	ROUND8(AESENC, 80)
	ROUND8(AESENC, 96)
	ROUND8(AESENC, 112)
	ROUND8(AESENC, 128)
	ROUND8(AESENC, 144)
	ROUND8(AESENC, 160)
	ROUND8(AESENC, 176)
	ROUND8(AESENC, 192)
	ROUND8(AESENC, 208)
	ROUND8(AESENCLAST, 224)
	XOR1(0, X0)
	XOR1(16, X1)
	XOR1(32, X2)
	XOR1(48, X3)
	XOR1(64, X4)
	XOR1(80, X5)
	XOR1(96, X6)
	XOR1(112, X7)
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $8, BX
	SUBQ $8, CX
	JMP  loop8

loop1:
	TESTQ CX, CX
	JZ    done
	COUNTER(0, X0)
	ROUND1(PXOR, 0)
	ROUND1(AESENC, 16)
	ROUND1(AESENC, 32)
	ROUND1(AESENC, 48)
	ROUND1(AESENC, 64)
	ROUND1(AESENC, 80)
	ROUND1(AESENC, 96)
	ROUND1(AESENC, 112)
	ROUND1(AESENC, 128)
	ROUND1(AESENC, 144)
	ROUND1(AESENC, 160)
	ROUND1(AESENC, 176)
	ROUND1(AESENC, 192)
	ROUND1(AESENC, 208)
	ROUND1(AESENCLAST, 224)
	XOR1(0, X0)
	ADDQ $16, SI
	ADDQ $16, DI
	INCQ BX
	DECQ CX
	JMP  loop1

done:
	RET
