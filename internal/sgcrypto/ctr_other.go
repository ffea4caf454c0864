//go:build !amd64

package sgcrypto

// hasFastCTR is false off amd64; Seal falls back to stdlib
// cipher.NewCTR per block, which is correct everywhere but allocates a
// stream object per call.
const hasFastCTR = false

// useVAES is never set off amd64. It is a variable so that tests which
// pick a CTR body compile everywhere.
var useVAES = false

// hasVAES is false off amd64: there is no VAES body.
func hasVAES() bool { return false }

// encryptBlocks256 is never called when hasFastCTR is false.
func encryptBlocks256(xk *[240]byte, buf []byte) {
	panic("sgcrypto: no AES block kernel on this architecture")
}

// ctrXor256 is never called when hasFastCTR is false.
func ctrXor256(xk *[240]byte, dst, src []byte, hi, lo uint64) {
	panic("sgcrypto: no CTR kernel on this architecture")
}
