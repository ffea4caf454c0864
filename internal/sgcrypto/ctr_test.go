package sgcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"testing"
)

// refCTR is the stdlib reference the fast path must match byte for byte:
// one cipher.NewCTR stream per block, exactly what Seal did before the
// assembly kernel existed. On-disk bytes written by older volumes were
// produced by this path, so equivalence here is a compatibility guarantee,
// not just a speedup check.
func refCTR(s *Sealer, blockNo int64, dst, src []byte) {
	iv := s.iv(blockNo)
	cipher.NewCTR(s.block, iv[:]).XORKeyStream(dst, src)
}

func testSealer(t testing.TB, nonce [16]byte) *Sealer {
	var key [KeyLen]byte
	for i := range key {
		key[i] = byte(i*7 + 3)
	}
	s, err := newSealer(&key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// forEachKernel runs fn once per body of ctrXor256 as subtests "aesni" and
// "vaes", switching the kernel choice made at init and restoring it when
// the subtest ends. The "vaes" subtest skips, saying so, where the CPU or
// OS lacks VAES, so a verbose run shows which bodies were exercised. Off
// amd64 "aesni" runs the stdlib fallback.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	for _, vaes := range []bool{false, true} {
		name := "aesni"
		if vaes {
			name = "vaes"
		}
		t.Run(name, func(t *testing.T) {
			if vaes && !(hasFastCTR && hasVAES()) {
				t.Skip("VAES body not exercised: CPUID/XGETBV report no VAES, AVX512F, AVX512BW or ZMM state")
			}
			useKernel(t, vaes)
			fn(t)
		})
	}
}

// useKernel selects the VAES body (or not) until t ends.
func useKernel(t testing.TB, vaes bool) {
	saved := useVAES
	useVAES = vaes
	t.Cleanup(func() { useVAES = saved })
}

func TestExpandKeyMatchesStdlib(t *testing.T) {
	if !hasFastCTR {
		t.Skip("no fast CTR kernel on this platform")
	}
	var key [KeyLen]byte
	for i := range key {
		key[i] = byte(i * 17)
	}
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	var xk [240]byte
	expandKeyAES256(&key, &xk)
	// One ECB block through the kernel vs stdlib Encrypt.
	pt := []byte("0123456789abcdef")
	got := append([]byte(nil), pt...)
	encryptBlocks256(&xk, got)
	want := make([]byte, 16)
	blk.Encrypt(want, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("kernel ECB block = %x, want %x", got, want)
	}
}

func TestSealMatchesStdlibCTR(t *testing.T) {
	nonces := [][16]byte{
		{},
		{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		// All-ones low half: blockNo XOR and counter increments carry into
		// the high half, the corner stdlib handles with its ripple loop.
		{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		// Low half 2^64-40: at blockNo 0 the counter wraps at block 40,
		// inside the 64-block body of a 1024-byte block. The VAES body
		// does not carry into hi, so such a call must not reach it.
		{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xd8},
	}
	blockNos := []int64{0, 1, 2, 255, 1 << 20, 1<<62 - 1}
	// 528 and 1040 bytes leave a 1-block tail after a 32- or 64-block body.
	sizes := []int{1, 15, 16, 17, 128, 528, 1024, 1040, 4096, 8197}
	forEachKernel(t, func(t *testing.T) {
		for ni, nonce := range nonces {
			s := testSealer(t, nonce)
			for _, no := range blockNos {
				for _, n := range sizes {
					src := make([]byte, n)
					for i := range src {
						src[i] = byte(i*13 + ni)
					}
					got := make([]byte, n)
					want := make([]byte, n)
					if err := s.Seal(no, got, src); err != nil {
						t.Fatal(err)
					}
					refCTR(s, no, want, src)
					if !bytes.Equal(got, want) {
						t.Fatalf("nonce %d blockNo %d n %d: Seal diverges from stdlib CTR", ni, no, n)
					}
					// Round trip through Open, in place.
					if err := s.Open(no, got, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, src) {
						t.Fatalf("nonce %d blockNo %d n %d: Open(Seal(x)) != x", ni, no, n)
					}
				}
			}
		}
	})
}

// FuzzSealEquivalence fuzzes data, block number and nonce through every
// CTR body this CPU has against the stdlib stream.
func FuzzSealEquivalence(f *testing.F) {
	f.Add([]byte("hello world, this is a block"), int64(42), []byte("nonce seed"))
	f.Add(make([]byte, 100), int64(0), []byte{0xff})
	kernels := []bool{false}
	if hasFastCTR && hasVAES() {
		kernels = append(kernels, true)
	}
	f.Fuzz(func(t *testing.T, src []byte, blockNo int64, nonceSeed []byte) {
		if len(src) == 0 {
			return
		}
		var nonce [16]byte
		copy(nonce[:], nonceSeed)
		s := testSealer(t, nonce)
		want := make([]byte, len(src))
		refCTR(s, blockNo, want, src)
		got := make([]byte, len(src))
		for _, vaes := range kernels {
			useKernel(t, vaes)
			if err := s.Seal(blockNo, got, src); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Seal (vaes=%v) diverges from stdlib CTR (blockNo=%d, n=%d)", vaes, blockNo, len(src))
			}
		}
	})
}

func TestSealerAllocFree(t *testing.T) {
	if !hasFastCTR {
		t.Skip("fallback path allocates a stream per call by design")
	}
	forEachKernel(t, func(t *testing.T) {
		s := testSealer(t, [16]byte{1})
		buf := make([]byte, 4096)
		if n := testing.AllocsPerRun(50, func() {
			_ = s.Seal(7, buf, buf)
		}); n != 0 {
			t.Fatalf("sealing allocated %v times per op, want 0", n)
		}
	})
}

// TestFillerMatchesStdlibCTR chains Fill calls of lengths that start and
// end mid-block and checks the concatenated output against one stdlib CTR
// stream under the filler's key and a zero IV.
func TestFillerMatchesStdlibCTR(t *testing.T) {
	seed := []byte("filler-equivalence")
	key := sha256.Sum256(append([]byte("stegfs.filler\x00"), seed...))
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	forEachKernel(t, func(t *testing.T) {
		f := NewRandomFiller(seed)
		var iv [16]byte
		ref := cipher.NewCTR(blk, iv[:])
		for _, n := range []int{1, 15, 17, 1024, 4096, 8197, 16, 3} {
			got := make([]byte, n)
			for i := range got {
				got[i] = 0xa5 // Fill overwrites, whatever buf held
			}
			f.Fill(got)
			want := make([]byte, n)
			ref.XORKeyStream(want, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("Fill(%d) diverges from stdlib CTR", n)
			}
		}
	})
}

func BenchmarkSeal(b *testing.B) {
	s := testSealer(b, [16]byte{1, 2, 3})
	for _, n := range []int{1024, 4096} {
		buf := make([]byte, n)
		b.Run(fmt.Sprintf("block/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.Seal(int64(i), buf, buf)
			}
		})
		b.Run(fmt.Sprintf("stdlib/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refCTR(s, int64(i), buf, buf)
			}
		})
	}
}

func BenchmarkFillerFill(b *testing.B) {
	f := NewRandomFiller([]byte("bench"))
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Fill(buf)
	}
}
