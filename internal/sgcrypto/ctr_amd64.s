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

// Per-lane counter offsets for the VAES body: lane j of the first ZMM
// counter register holds (lo+j, hi) as two little-endian qwords.
DATA vaesCtrOffsets<>+0x00(SB)/8, $0
DATA vaesCtrOffsets<>+0x08(SB)/8, $0
DATA vaesCtrOffsets<>+0x10(SB)/8, $1
DATA vaesCtrOffsets<>+0x18(SB)/8, $0
DATA vaesCtrOffsets<>+0x20(SB)/8, $2
DATA vaesCtrOffsets<>+0x28(SB)/8, $0
DATA vaesCtrOffsets<>+0x30(SB)/8, $3
DATA vaesCtrOffsets<>+0x38(SB)/8, $0
GLOBL vaesCtrOffsets<>(SB), RODATA|NOPTR, $64

// One ZMM register covers four counters, so each lane steps by 4.
DATA vaesCtrStep<>+0x00(SB)/8, $4
DATA vaesCtrStep<>+0x08(SB)/8, $0
GLOBL vaesCtrStep<>(SB), RODATA|NOPTR, $16

// VPSHUFB mask reversing the 16 bytes of a lane: the little-endian
// (lo, hi) qword pair becomes the big-endian counter block stdlib CTR
// encrypts.
DATA vaesBswap<>+0x00(SB)/8, $0x08090a0b0c0d0e0f
DATA vaesBswap<>+0x08(SB)/8, $0x0001020304050607
GLOBL vaesBswap<>(SB), RODATA|NOPTR, $16

// One middle round applied to the 32 blocks in Z0-Z7.
#define VENC8(rk) \
	VAESENC rk, Z0, Z0 \
	VAESENC rk, Z1, Z1 \
	VAESENC rk, Z2, Z2 \
	VAESENC rk, Z3, Z3 \
	VAESENC rk, Z4, Z4 \
	VAESENC rk, Z5, Z5 \
	VAESENC rk, Z6, Z6 \
	VAESENC rk, Z7, Z7

// Next four big-endian counter blocks into zreg; advance Z8 by 4 per lane.
#define VCTR4(zreg) \
	VPSHUFB Z31, Z8, zreg \
	VPADDQ  Z9, Z8, Z8

// func ctrXor256VAESAsm(xk *byte, dst, src *byte, nblocks int64, hi, lo uint64)
//
// The same CTR keystream as ctrXor256Asm, 32 blocks per iteration: eight
// ZMM registers of four AES blocks each. nblocks must be a positive
// multiple of 32, and lo+nblocks must not wrap, because VPADDQ does not
// carry into hi; the Go caller sends every other call to ctrXor256Asm. The
// 15 round keys stay broadcast in Z16-Z30 for the whole call.
TEXT ·ctrXor256VAESAsm(SB), NOSPLIT, $0-48
	MOVQ xk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ nblocks+24(FP), CX
	MOVQ hi+32(FP), R8
	MOVQ lo+40(FP), R9

	VBROADCASTI32X4 0(AX), Z16
	VBROADCASTI32X4 16(AX), Z17
	VBROADCASTI32X4 32(AX), Z18
	VBROADCASTI32X4 48(AX), Z19
	VBROADCASTI32X4 64(AX), Z20
	VBROADCASTI32X4 80(AX), Z21
	VBROADCASTI32X4 96(AX), Z22
	VBROADCASTI32X4 112(AX), Z23
	VBROADCASTI32X4 128(AX), Z24
	VBROADCASTI32X4 144(AX), Z25
	VBROADCASTI32X4 160(AX), Z26
	VBROADCASTI32X4 176(AX), Z27
	VBROADCASTI32X4 192(AX), Z28
	VBROADCASTI32X4 208(AX), Z29
	VBROADCASTI32X4 224(AX), Z30
	VBROADCASTI32X4 vaesBswap<>(SB), Z31
	VBROADCASTI32X4 vaesCtrStep<>(SB), Z9

	// Z8 = (lo+j, hi) in lane j.
	VMOVQ      R9, X8
	VPINSRQ    $1, R8, X8, X8
	VSHUFI64X2 $0, Z8, Z8, Z8
	VPADDQ     vaesCtrOffsets<>(SB), Z8, Z8

vaesloop:
	VCTR4(Z0)
	VCTR4(Z1)
	VCTR4(Z2)
	VCTR4(Z3)
	VCTR4(Z4)
	VCTR4(Z5)
	VCTR4(Z6)
	VCTR4(Z7)
	VPXORQ Z16, Z0, Z0
	VPXORQ Z16, Z1, Z1
	VPXORQ Z16, Z2, Z2
	VPXORQ Z16, Z3, Z3
	VPXORQ Z16, Z4, Z4
	VPXORQ Z16, Z5, Z5
	VPXORQ Z16, Z6, Z6
	VPXORQ Z16, Z7, Z7
	VENC8(Z17)
	VENC8(Z18)
	VENC8(Z19)
	VENC8(Z20)
	VENC8(Z21)
	VENC8(Z22)
	VENC8(Z23)
	VENC8(Z24)
	VENC8(Z25)
	VENC8(Z26)
	VENC8(Z27)
	VENC8(Z28)
	VENC8(Z29)
	VAESENCLAST Z30, Z0, Z0
	VAESENCLAST Z30, Z1, Z1
	VAESENCLAST Z30, Z2, Z2
	VAESENCLAST Z30, Z3, Z3
	VAESENCLAST Z30, Z4, Z4
	VAESENCLAST Z30, Z5, Z5
	VAESENCLAST Z30, Z6, Z6
	VAESENCLAST Z30, Z7, Z7
	VPXORQ    0(SI), Z0, Z0
	VPXORQ    64(SI), Z1, Z1
	VPXORQ    128(SI), Z2, Z2
	VPXORQ    192(SI), Z3, Z3
	VPXORQ    256(SI), Z4, Z4
	VPXORQ    320(SI), Z5, Z5
	VPXORQ    384(SI), Z6, Z6
	VPXORQ    448(SI), Z7, Z7
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	ADDQ $512, SI
	ADDQ $512, DI
	SUBQ $32, CX
	JNZ  vaesloop

	VZEROUPPER
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

// func xgetbv() (eax, edx uint32)
//
// Reads XCR0, the state components the OS saves across context switches.
// Only valid when CPUID.1:ECX.OSXSAVE is set.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
