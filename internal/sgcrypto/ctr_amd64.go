//go:build amd64

package sgcrypto

import "math"

// hasFastCTR gates the assembly keystream kernel that the Sealer and the
// RandomFiller share: counter blocks are encrypted in assembly with AES-NI
// (or VAES, see useVAES), which is both faster than stdlib cipher.NewCTR
// at block granularity and — unlike it — allocation-free, since no
// cipher.Stream object is constructed per block.
var hasFastCTR = hasAESNI()

// useVAES selects the VAES body of ctrXor256 (32 blocks per iteration, four
// per VAESENC) over the 8-way AES-NI loop. It is decided once, here, from
// CPUID and XGETBV; both bodies produce the same keystream.
var useVAES = hasFastCTR && hasVAES()

// cpuid executes CPUID with the given leaf and subleaf. Implemented in
// ctr_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0. Implemented in ctr_amd64.s.
func xgetbv() (eax, edx uint32)

// hasAESNI reports AESENC/AESENCLAST support (CPUID leaf 1, ECX bit 25).
func hasAESNI() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<25) != 0
}

// hasVAES reports whether the CPU has VAES, AVX512F and AVX512BW and the OS
// saves ZMM state. XGETBV faults unless OSXSAVE is set, so it is read only
// then.
func hasVAES() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0 uint32
	if ecx1&(1<<27) != 0 {
		xcr0, _ = xgetbv()
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return vaesUsable(ecx1, ebx7, ecx7, xcr0)
}

// vaesUsable is the selection rule over the raw registers: CPUID.1:ECX
// OSXSAVE (bit 27); XCR0 bits 1, 2 and 5-7 (SSE, AVX and the three AVX-512
// state components, mask 0xE6); CPUID.7.0:EBX AVX512F (bit 16) and
// AVX512BW (bit 30, for the ZMM VPSHUFB); CPUID.7.0:ECX VAES (bit 9).
func vaesUsable(ecx1, ebx7, ecx7, xcr0 uint32) bool {
	const avx512f, avx512bw, vaes = 1 << 16, 1 << 30, 1 << 9
	return ecx1&(1<<27) != 0 &&
		xcr0&0xE6 == 0xE6 &&
		ebx7&(avx512f|avx512bw) == avx512f|avx512bw &&
		ecx7&vaes != 0
}

// encryptBlocks256Asm encrypts nblocks 16-byte blocks of buf in place (ECB)
// with the expanded AES-256 schedule at xk. Implemented in ctr_amd64.s.
//
//go:noescape
func encryptBlocks256Asm(xk *byte, buf *byte, nblocks int64)

// encryptBlocks256 encrypts len(buf)/16 blocks of buf in place. len(buf)
// must be a positive multiple of 16.
func encryptBlocks256(xk *[240]byte, buf []byte) {
	encryptBlocks256Asm(&xk[0], &buf[0], int64(len(buf)/16))
}

// ctrXor256Asm is the fused 8-way AES-NI counter-mode kernel in
// ctr_amd64.s.
//
//go:noescape
func ctrXor256Asm(xk *byte, dst, src *byte, nblocks int64, hi, lo uint64)

// ctrXor256VAESAsm is the 32-way VAES body in ctr_amd64.s. nblocks must be
// a positive multiple of 32 and lo+nblocks must not wrap.
//
//go:noescape
func ctrXor256VAESAsm(xk *byte, dst, src *byte, nblocks int64, hi, lo uint64)

// ctrXor256 computes dst = src XOR keystream for len(src)/16 counter blocks
// starting at (hi, lo). Lengths must be equal, positive multiples of 16.
// With useVAES the largest multiple of 32 blocks goes through the VAES
// body and the rest through the AES-NI loop; a call whose lo half would
// wrap runs on the AES-NI loop alone, which carries into hi.
func ctrXor256(xk *[240]byte, dst, src []byte, hi, lo uint64) {
	n := uint64(len(src) / 16)
	if body := n &^ 31; useVAES && body > 0 && lo <= math.MaxUint64-n {
		ctrXor256VAESAsm(&xk[0], &dst[0], &src[0], int64(body), hi, lo)
		if body == n {
			return
		}
		dst, src, lo, n = dst[body*16:], src[body*16:], lo+body, n-body
	}
	ctrXor256Asm(&xk[0], &dst[0], &src[0], int64(n), hi, lo)
}
