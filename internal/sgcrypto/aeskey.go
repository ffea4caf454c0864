package sgcrypto

import "encoding/binary"

// This file holds the portable half of the fast CTR path: AES-256 key
// expansion into the flat 240-byte schedule the assembly keystream kernel
// consumes (15 round keys x 16 bytes, each FIPS-197 word serialized
// big-endian so a plain 16-byte load yields the round key in AESENC order).
// Expansion runs once per Sealer; the per-block work is all in the kernel.

// aesSbox is the FIPS-197 S-box, built from the field inverse and the affine
// transform rather than pasted as a table: sbox(x) = A(inv(x)) ^ 0x63 with
// A(b) = b ^ rotl1(b) ^ rotl2(b) ^ rotl3(b) ^ rotl4(b).
var aesSbox [256]byte

func init() {
	// The field inverse comes from one walk over the powers of the generator
	// 3 in GF(2^8) mod x^8+x^4+x^3+x+1: with exp[i] = 3^i, the inverse of
	// 3^i is 3^(255-i).
	var exp [255]byte
	var log [256]int
	for i, x := 0, byte(1); i < 255; i++ {
		exp[i], log[x] = x, i
		x ^= x<<1 ^ (x>>7)*0x1b // x *= 3
	}
	rotl8 := func(b byte, n uint) byte { return b<<n | b>>(8-n) }
	for x := 0; x < 256; x++ {
		var inv byte
		if x != 0 {
			inv = exp[(255-log[x])%255]
		}
		aesSbox[x] = inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^ rotl8(inv, 3) ^ rotl8(inv, 4) ^ 0x63
	}
}

func subWord(w uint32) uint32 {
	return uint32(aesSbox[w>>24])<<24 |
		uint32(aesSbox[w>>16&0xff])<<16 |
		uint32(aesSbox[w>>8&0xff])<<8 |
		uint32(aesSbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

// aesRcon holds x^(i-1) round constants for the seven key-schedule rounds
// AES-256 uses (Nk=8, Nr=14: 60 words, a subWord/rotWord step every 8).
var aesRcon = [8]uint32{0, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40}

// expandKeyAES256 expands a 32-byte key into the 240-byte encryption
// schedule. Decryption never needs the inverse schedule here: CTR only ever
// runs the forward cipher.
func expandKeyAES256(key *[KeyLen]byte, xk *[240]byte) {
	var w [60]uint32
	for i := 0; i < 8; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	for i := 8; i < 60; i++ {
		t := w[i-1]
		switch i % 8 {
		case 0:
			t = subWord(rotWord(t)) ^ aesRcon[i/8]<<24
		case 4:
			t = subWord(t)
		}
		w[i] = w[i-8] ^ t
	}
	for i, v := range w {
		binary.BigEndian.PutUint32(xk[4*i:], v)
	}
}
