package sgcrypto

import "testing"

// TestVAESSelectionRule checks the init-time kernel choice over raw CPUID
// and XCR0 values: each missing feature bit or ZMM state component turns
// the VAES body off, so ctrXor256 stays on the AES-NI loop.
func TestVAESSelectionRule(t *testing.T) {
	const (
		osxsave  = 1 << 27
		avx512f  = 1 << 16
		avx512bw = 1 << 30
		vaes     = 1 << 9
		zmmState = 0xE6
	)
	cases := []struct {
		name                   string
		ecx1, ebx7, ecx7, xcr0 uint32
		want                   bool
	}{
		{"all present", osxsave, avx512f | avx512bw, vaes, zmmState, true},
		{"all present, extra XCR0 bits", osxsave, avx512f | avx512bw, vaes, 0x2FF, true},
		{"no OSXSAVE", 0, avx512f | avx512bw, vaes, zmmState, false},
		{"OS saves no ZMM state", osxsave, avx512f | avx512bw, vaes, 0x06, false},
		{"OS saves no ZMM_Hi256", osxsave, avx512f | avx512bw, vaes, 0xA6, false},
		{"no AVX512F", osxsave, avx512bw, vaes, zmmState, false},
		{"no AVX512BW", osxsave, avx512f, vaes, zmmState, false},
		{"no VAES", osxsave, avx512f | avx512bw, 0, zmmState, false},
	}
	for _, c := range cases {
		if got := vaesUsable(c.ecx1, c.ebx7, c.ecx7, c.xcr0); got != c.want {
			t.Errorf("%s: vaesUsable = %v, want %v", c.name, got, c.want)
		}
	}
	t.Logf("this CPU: AES-NI %v, VAES body selected at init %v", hasFastCTR, useVAES)
}
