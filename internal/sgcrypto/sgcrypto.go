// Package sgcrypto collects the cryptographic building blocks of StegFS:
//
//   - the SHA-256 chain pseudorandom block-number generator used to locate
//     hidden-file headers (paper §3.1 / §4: "the seed is recursively hashed
//     to generate the pseudorandom numbers");
//   - the per-file AES block sealer that makes hidden blocks
//     indistinguishable from random/abandoned blocks;
//   - file signatures H(name, key) that confirm a located header;
//   - RSA wrapping of (name, FAK) entry files for the sharing protocol of
//     Figure 4;
//   - a deterministic random filler for format-time block initialization.
//
// All primitives come from the Go standard library (crypto/aes, crypto/sha256,
// crypto/rsa), mirroring the paper's AES [5] and SHA [6] choices.
package sgcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// SignatureLen is the length in bytes of a hidden-file signature. The paper
// requires "a long string" to avoid false matches; 32 bytes (SHA-256) gives a
// 2^-256 false-match probability.
const SignatureLen = sha256.Size

// KeyLen is the AES key length used for hidden-file block encryption.
const KeyLen = 32 // AES-256

// PRBG is the pseudorandom block-number generator: a SHA-256 hash chain
// seeded from H(physical name, access key). Successive calls to Next yield
// the candidate block numbers for a hidden object's header.
type PRBG struct {
	state [sha256.Size]byte
	n     int64 // modulus: block numbers are in [0, n)
}

// NewPRBG creates a generator over block numbers [0, numBlocks) seeded from
// seed. The same (seed, numBlocks) always produces the same sequence.
func NewPRBG(seed []byte, numBlocks int64) *PRBG {
	if numBlocks <= 0 {
		numBlocks = 1
	}
	return &PRBG{state: sha256.Sum256(seed), n: numBlocks}
}

// Next advances the hash chain and returns the next candidate block number.
func (g *PRBG) Next() int64 {
	g.state = sha256.Sum256(g.state[:])
	v := binary.BigEndian.Uint64(g.state[:8])
	return int64(v % uint64(g.n))
}

// HeaderSeed derives the PRBG seed for locating a hidden object's header
// from its physical name and file access key (paper §3.1: "a hash value
// computed from the file name and access key").
func HeaderSeed(physName string, fak []byte) []byte {
	h := sha256.New()
	h.Write([]byte("stegfs.header.seed\x00"))
	writeLenPrefixed(h, []byte(physName))
	writeLenPrefixed(h, fak)
	return h.Sum(nil)
}

// Signature computes the hidden-file signature stored in the header: a
// one-way hash of the physical name and access key, so an attacker cannot
// infer the key from name + signature.
func Signature(physName string, fak []byte) [SignatureLen]byte {
	h := sha256.New()
	h.Write([]byte("stegfs.signature\x00"))
	writeLenPrefixed(h, []byte(physName))
	writeLenPrefixed(h, fak)
	var sig [SignatureLen]byte
	copy(sig[:], h.Sum(nil))
	return sig
}

// DeriveKey derives the AES-256 block-encryption key for a hidden object
// from its file access key.
func DeriveKey(fak []byte) [KeyLen]byte {
	h := sha256.New()
	h.Write([]byte("stegfs.blockkey\x00"))
	writeLenPrefixed(h, fak)
	var k [KeyLen]byte
	copy(k[:], h.Sum(nil))
	return k
}

// DeriveNonce derives the per-file 128-bit IV base mixed with the block
// number to form each block's CTR IV.
func DeriveNonce(physName string, fak []byte) [16]byte {
	h := sha256.New()
	h.Write([]byte("stegfs.nonce\x00"))
	writeLenPrefixed(h, []byte(physName))
	writeLenPrefixed(h, fak)
	var iv [16]byte
	copy(iv[:], h.Sum(nil))
	return iv
}

func writeLenPrefixed(w io.Writer, b []byte) {
	var l [8]byte
	binary.BigEndian.PutUint64(l[:], uint64(len(b)))
	w.Write(l[:])
	w.Write(b)
}

// Sealer encrypts and decrypts the fixed-size blocks of one hidden object
// with AES-256 in CTR mode. The IV for block i is nonce XOR i, so every
// block position of every file has its own keystream and ciphertext blocks
// are indistinguishable from uniformly random bytes. The keystream is
// distinct per block, not per write: rewriting block i in place reuses it,
// so the XOR of two raw images of that block is the XOR of its two
// plaintexts (the snapshot-diff attack; see ROADMAP.md, open item 1).
//
// On amd64 with AES-NI the sealer carries an expanded key schedule and runs
// a fused counter-mode kernel: counters are materialized, encrypted 8 at a
// time (32 at a time, four per VAESENC, where the CPU has VAES and
// AVX-512) and XORed with the payload in a single assembly pass. The
// output is byte-identical to stdlib CTR (the stdlib stream increments the
// whole 16-byte counter big-endian with carry, mirrored here in the hi/lo
// split) but with no per-call stream allocation and no keystream buffer
// traffic. Both kernels seal with the same per-block keystream, so the
// reuse on rewrite described above holds for either.
type Sealer struct {
	block cipher.Block
	nonce [16]byte

	// fast-path state (valid when fast is true)
	fast bool
	xk   [240]byte
	ivHi uint64 // big-endian high half of nonce
	ivLo uint64 // big-endian low half of nonce; block IVs XOR blockNo in here
}

// NewSealer builds a sealer for the hidden object identified by (physName,
// fak).
func NewSealer(physName string, fak []byte) (*Sealer, error) {
	key := DeriveKey(fak)
	return newSealer(&key, DeriveNonce(physName, fak))
}

// newSealer is the inner constructor, split out so tests can pin arbitrary
// nonces (e.g. all-0xff, to exercise counter carry into the high half).
func newSealer(key *[KeyLen]byte, nonce [16]byte) (*Sealer, error) {
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sgcrypto: %w", err)
	}
	s := &Sealer{block: blk, nonce: nonce}
	if hasFastCTR {
		expandKeyAES256(key, &s.xk)
		s.ivHi = binary.BigEndian.Uint64(nonce[:8])
		s.ivLo = binary.BigEndian.Uint64(nonce[8:])
		s.fast = true
	}
	return s, nil
}

func (s *Sealer) iv(blockNo int64) [16]byte {
	iv := s.nonce
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(blockNo))
	for i := 0; i < 8; i++ {
		iv[8+i] ^= b[i]
	}
	return iv
}

// ctrXorFast sets dst = src XOR the CTR keystream starting at counter
// block (hi, lo): the 16-byte-aligned body goes through the assembly
// kernel in one pass (counters materialized, encrypted and XORed without a
// keystream buffer); a trailing partial block of rem bytes encrypts one
// counter into ks and uses ks[:rem]. It returns the counter after the last
// block touched, partial or not, which is where a stream continues.
func ctrXorFast(xk *[240]byte, dst, src []byte, hi, lo uint64, ks *[16]byte) (uint64, uint64) {
	full := len(src) &^ 15
	if full > 0 {
		ctrXor256(xk, dst[:full], src[:full], hi, lo)
		hi, lo = ctrAdd(hi, lo, uint64(full/16))
	}
	if rem := len(src) - full; rem > 0 {
		binary.BigEndian.PutUint64(ks[:8], hi)
		binary.BigEndian.PutUint64(ks[8:], lo)
		encryptBlocks256(xk, ks[:])
		subtle.XORBytes(dst[full:], src[full:], ks[:rem])
		hi, lo = ctrAdd(hi, lo, 1)
	}
	return hi, lo
}

// ctrAdd advances the 128-bit counter (hi, lo) by n, carrying into hi as
// stdlib CTR's big-endian increment does.
func ctrAdd(hi, lo, n uint64) (uint64, uint64) {
	lo2 := lo + n
	if lo2 < lo {
		hi++
	}
	return hi, lo2
}

// Seal encrypts src (one disk block belonging to logical block blockNo) into
// dst. dst and src must have equal length and may alias exactly.
func (s *Sealer) Seal(blockNo int64, dst, src []byte) error {
	if len(dst) != len(src) {
		return errors.New("sgcrypto: Seal length mismatch")
	}
	if len(src) == 0 {
		return nil
	}
	if !s.fast {
		iv := s.iv(blockNo)
		cipher.NewCTR(s.block, iv[:]).XORKeyStream(dst, src)
		return nil
	}
	var ks [16]byte
	ctrXorFast(&s.xk, dst, src, s.ivHi, s.ivLo^uint64(blockNo), &ks)
	return nil
}

// Open decrypts src (one disk block) into dst. CTR mode is symmetric, so
// this is the same keystream XOR.
func (s *Sealer) Open(blockNo int64, dst, src []byte) error {
	return s.Seal(blockNo, dst, src)
}

// RandomFiller produces a deterministic stream of uniformly-random-looking
// bytes (an AES-CTR keystream) for initializing freshly formatted volumes,
// abandoned blocks and dummy hidden files. Determinism keeps experiments
// repeatable; indistinguishability from true randomness is exactly the
// property format-time filling needs.
//
// Where hasFastCTR holds, the stream comes from the same CTR kernel the
// Sealer uses, starting at counter block 0; the bytes are those of stdlib
// cipher.NewCTR with a zero IV for any sequence of Fill lengths.
type RandomFiller struct {
	stream cipher.Stream // stdlib CTR, used where hasFastCTR is false

	xk     [240]byte
	hi, lo uint64   // next unused counter block
	ks     [16]byte // keystream of the last partial block
	left   []byte   // unused tail of ks
}

// NewRandomFiller creates a filler whose output is fixed by seed.
func NewRandomFiller(seed []byte) *RandomFiller {
	key := sha256.Sum256(append([]byte("stegfs.filler\x00"), seed...))
	f := &RandomFiller{}
	if hasFastCTR {
		expandKeyAES256(&key, &f.xk)
		return f
	}
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; 32 bytes is valid.
		panic(err)
	}
	var iv [16]byte
	f.stream = cipher.NewCTR(blk, iv[:])
	return f
}

// Fill overwrites buf with the next bytes of the pseudorandom stream.
func (f *RandomFiller) Fill(buf []byte) {
	clear(buf)
	if f.stream != nil {
		f.stream.XORKeyStream(buf, buf)
		return
	}
	n := copy(buf, f.left)
	f.left = f.left[n:]
	buf = buf[n:]
	if len(buf) == 0 {
		return
	}
	f.hi, f.lo = ctrXorFast(&f.xk, buf, buf, f.hi, f.lo, &f.ks)
	if rem := len(buf) & 15; rem > 0 {
		f.left = f.ks[rem:]
	}
}

// --- Sharing protocol (Figure 4) -------------------------------------------

// RSAKeyBits is the modulus size for recipient key pairs in the sharing
// protocol.
const RSAKeyBits = 2048

// GenerateKeyPair creates an RSA key pair for a sharing recipient.
func GenerateKeyPair() (*rsa.PrivateKey, error) {
	return rsa.GenerateKey(rand.Reader, RSAKeyBits)
}

// WrapEntry encrypts an entry-file payload (the serialized (name, FAK)
// record) with the recipient's public key, producing the ciphertext the
// owner sends, e.g. via email (paper §3.2). Payloads longer than one RSA-OAEP
// block are chunked.
func WrapEntry(pub *rsa.PublicKey, payload []byte) ([]byte, error) {
	maxChunk := pub.Size() - 2*sha256.Size - 2
	if maxChunk <= 0 {
		return nil, errors.New("sgcrypto: RSA key too small")
	}
	var out []byte
	for off := 0; off < len(payload) || off == 0; off += maxChunk {
		end := off + maxChunk
		if end > len(payload) {
			end = len(payload)
		}
		ct, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, payload[off:end], []byte("stegfs.entry"))
		if err != nil {
			return nil, fmt.Errorf("sgcrypto: wrap entry: %w", err)
		}
		out = append(out, ct...)
		if end == len(payload) {
			break
		}
	}
	return out, nil
}

// UnwrapEntry decrypts an entry file produced by WrapEntry with the
// recipient's private key.
func UnwrapEntry(priv *rsa.PrivateKey, ct []byte) ([]byte, error) {
	size := priv.Size()
	if len(ct) == 0 || len(ct)%size != 0 {
		return nil, fmt.Errorf("sgcrypto: entry ciphertext length %d not a multiple of %d", len(ct), size)
	}
	var out []byte
	for off := 0; off < len(ct); off += size {
		pt, err := rsa.DecryptOAEP(sha256.New(), nil, priv, ct[off:off+size], []byte("stegfs.entry"))
		if err != nil {
			return nil, fmt.Errorf("sgcrypto: unwrap entry: %w", err)
		}
		out = append(out, pt...)
	}
	return out, nil
}

// NewFAK generates a fresh random file access key (paper §3.2: each hidden
// file is secured with a randomly generated FAK so it can be shared without
// exposing the owner's UAK).
func NewFAK() ([]byte, error) {
	fak := make([]byte, 32)
	if _, err := rand.Read(fak); err != nil {
		return nil, fmt.Errorf("sgcrypto: new FAK: %w", err)
	}
	return fak, nil
}
