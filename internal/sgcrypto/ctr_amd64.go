//go:build amd64

package sgcrypto

// hasFastCTR gates the assembly keystream kernel: the Sealer precomputes
// counter blocks in Go and encrypts them 8 at a time with AES-NI, which is
// both faster than stdlib cipher.NewCTR at block granularity and — unlike
// it — allocation-free, since no cipher.Stream object is constructed per
// block.
var hasFastCTR = hasAESNI()

// cpuid executes CPUID with the given leaf and subleaf. Implemented in
// ctr_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// hasAESNI reports AESENC/AESENCLAST support (CPUID leaf 1, ECX bit 25).
func hasAESNI() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<25) != 0
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

// ctrXor256Asm is the fused counter-mode kernel in ctr_amd64.s.
//
//go:noescape
func ctrXor256Asm(xk *byte, dst, src *byte, nblocks int64, hi, lo uint64)

// ctrXor256 computes dst = src XOR keystream for len(src)/16 counter blocks
// starting at (hi, lo). Lengths must be equal, positive multiples of 16.
func ctrXor256(xk *[240]byte, dst, src []byte, hi, lo uint64) {
	ctrXor256Asm(&xk[0], &dst[0], &src[0], int64(len(src)/16), hi, lo)
}
