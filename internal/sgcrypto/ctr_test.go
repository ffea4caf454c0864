package sgcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
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
	}
	blockNos := []int64{0, 1, 2, 255, 1 << 20, 1<<62 - 1}
	sizes := []int{1, 15, 16, 17, 128, 1024, 4096, 8197}
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
}

// FuzzSealEquivalence fuzzes data, block number and nonce through the fast
// path against the stdlib stream.
func FuzzSealEquivalence(f *testing.F) {
	f.Add([]byte("hello world, this is a block"), int64(42), []byte("nonce seed"))
	f.Add(make([]byte, 100), int64(0), []byte{0xff})
	f.Fuzz(func(t *testing.T, src []byte, blockNo int64, nonceSeed []byte) {
		if len(src) == 0 {
			return
		}
		var nonce [16]byte
		copy(nonce[:], nonceSeed)
		s := testSealer(t, nonce)
		got := make([]byte, len(src))
		want := make([]byte, len(src))
		if err := s.Seal(blockNo, got, src); err != nil {
			t.Fatal(err)
		}
		refCTR(s, blockNo, want, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("Seal diverges from stdlib CTR (blockNo=%d, n=%d)", blockNo, len(src))
		}
	})
}

func TestSealerAllocFree(t *testing.T) {
	if !hasFastCTR {
		t.Skip("fallback path allocates a stream per call by design")
	}
	s := testSealer(t, [16]byte{1})
	buf := make([]byte, 4096)
	if n := testing.AllocsPerRun(50, func() {
		_ = s.Seal(7, buf, buf)
	}); n != 0 {
		t.Fatalf("sealing allocated %v times per op, want 0", n)
	}
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
