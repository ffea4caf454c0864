//go:build amd64

#include "textflag.h"

// One middle round (rounds 1..13) applied to eight blocks: the round key is
// reloaded from the schedule each round because 15 round keys plus 8 data
// blocks exceed the 16 XMM registers; the load is hoisted once per round
// and AESENC throughput (not the load) dominates.
#define ENC8(off) \
	MOVUPS off(AX), X8 \
	AESENC X8, X0      \
	AESENC X8, X1      \
	AESENC X8, X2      \
	AESENC X8, X3      \
	AESENC X8, X4      \
	AESENC X8, X5      \
	AESENC X8, X6      \
	AESENC X8, X7

#define ENC1(off) \
	MOVUPS off(AX), X8 \
	AESENC X8, X0

// Materialize the next big-endian 128-bit counter block into xreg and
// advance the (R8 hi, R9 lo) counter pair. BSWAP turns the native-endian
// GPR halves into the byte order stdlib CTR writes, so the encrypted
// keystream matches cipher.NewCTR bit for bit.
#define CTRBLK(xreg) \
	MOVQ   R8, R10        \
	MOVQ   R9, R11        \
	BSWAPQ R10            \
	BSWAPQ R11            \
	MOVQ   R10, xreg      \
	PINSRQ $1, R11, xreg  \
	ADDQ   $1, R9         \
	ADCQ   $0, R8

// func encryptBlocks256Asm(xk *byte, buf *byte, nblocks int64)
//
// AES-256 ECB over nblocks 16-byte blocks of buf, in place. Eight blocks
// are pipelined per iteration so the 4-cycle AESENC latency overlaps; the
// tail runs one block at a time.
TEXT ·encryptBlocks256Asm(SB), NOSPLIT, $0-24
	MOVQ xk+0(FP), AX
	MOVQ buf+8(FP), DI
	MOVQ nblocks+16(FP), CX

loop8:
	CMPQ CX, $8
	JB   loop1
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	MOVUPS 0(AX), X8
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7
	ENC8(16)
	ENC8(32)
	ENC8(48)
	ENC8(64)
	ENC8(80)
	ENC8(96)
	ENC8(112)
	ENC8(128)
	ENC8(144)
	ENC8(160)
	ENC8(176)
	ENC8(192)
	ENC8(208)
	MOVUPS     224(AX), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3
	AESENCLAST X8, X4
	AESENCLAST X8, X5
	AESENCLAST X8, X6
	AESENCLAST X8, X7
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	SUBQ   $8, CX
	JMP    loop8

loop1:
	TESTQ CX, CX
	JZ    done
	MOVUPS 0(DI), X0
	MOVUPS 0(AX), X8
	PXOR   X8, X0
	ENC1(16)
	ENC1(32)
	ENC1(48)
	ENC1(64)
	ENC1(80)
	ENC1(96)
	ENC1(112)
	ENC1(128)
	ENC1(144)
	ENC1(160)
	ENC1(176)
	ENC1(192)
	ENC1(208)
	MOVUPS     224(AX), X8
	AESENCLAST X8, X0
	MOVUPS X0, 0(DI)
	ADDQ   $16, DI
	DECQ   CX
	JMP    loop1

done:
	RET

// func ctrXor256Asm(xk *byte, dst, src *byte, nblocks int64, hi, lo uint64)
//
// The fused CTR kernel: dst[i] = src[i] XOR AES256(counter_i) over nblocks
// 16-byte blocks, where the 128-bit counter starts at (hi, lo) and
// increments big-endian with carry. Counter materialization, the cipher and
// the payload XOR all happen in one pass, so no keystream buffer is ever
// written to memory. dst and src may be equal (in-place).
TEXT ·ctrXor256Asm(SB), NOSPLIT, $0-48
	MOVQ xk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ nblocks+24(FP), CX
	MOVQ hi+32(FP), R8
	MOVQ lo+40(FP), R9

ctrloop8:
	CMPQ CX, $8
	JB   ctrloop1
	CTRBLK(X0)
	CTRBLK(X1)
	CTRBLK(X2)
	CTRBLK(X3)
	CTRBLK(X4)
	CTRBLK(X5)
	CTRBLK(X6)
	CTRBLK(X7)
	MOVUPS 0(AX), X8
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7
	ENC8(16)
	ENC8(32)
	ENC8(48)
	ENC8(64)
	ENC8(80)
	ENC8(96)
	ENC8(112)
	ENC8(128)
	ENC8(144)
	ENC8(160)
	ENC8(176)
	ENC8(192)
	ENC8(208)
	MOVUPS     224(AX), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3
	AESENCLAST X8, X4
	AESENCLAST X8, X5
	AESENCLAST X8, X6
	AESENCLAST X8, X7
	MOVUPS 0(SI), X8
	PXOR   X8, X0
	MOVUPS 16(SI), X8
	PXOR   X8, X1
	MOVUPS 32(SI), X8
	PXOR   X8, X2
	MOVUPS 48(SI), X8
	PXOR   X8, X3
	MOVUPS 64(SI), X8
	PXOR   X8, X4
	MOVUPS 80(SI), X8
	PXOR   X8, X5
	MOVUPS 96(SI), X8
	PXOR   X8, X6
	MOVUPS 112(SI), X8
	PXOR   X8, X7
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, SI
	ADDQ   $128, DI
	SUBQ   $8, CX
	JMP    ctrloop8

ctrloop1:
	TESTQ CX, CX
	JZ    ctrdone
	CTRBLK(X0)
	MOVUPS 0(AX), X8
	PXOR   X8, X0
	ENC1(16)
	ENC1(32)
	ENC1(48)
	ENC1(64)
	ENC1(80)
	ENC1(96)
	ENC1(112)
	ENC1(128)
	ENC1(144)
	ENC1(160)
	ENC1(176)
	ENC1(192)
	ENC1(208)
	MOVUPS     224(AX), X8
	AESENCLAST X8, X0
	MOVUPS 0(SI), X8
	PXOR   X8, X0
	MOVUPS X0, 0(DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   CX
	JMP    ctrloop1

ctrdone:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
