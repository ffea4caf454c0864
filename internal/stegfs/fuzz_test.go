package stegfs

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"stegfs/internal/ptree"
	"stegfs/internal/sgcrypto"
)

// FuzzDecodeHeader feeds arbitrary bytes to the hidden-header decoder. The
// decoder parses data that was decrypted with an attacker-influenced key, so
// it must never panic, whatever the input. When the input happens to carry a
// matching signature, a successful decode must survive an encode→decode
// round trip.
func FuzzDecodeHeader(f *testing.F) {
	sig := sgcrypto.Signature("fuzz/header", []byte("fak"))
	// Seed 1: a well-formed header.
	valid := &header{sig: sig, flags: FlagFile, size: 12345, nblocks: 25,
		root: ptree.NewRoot(hdrNumDirect), free: []int64{7, 9, 11}}
	for i := range valid.root.Direct {
		valid.root.Direct[i] = int64(100 + i)
	}
	buf := make([]byte, 1024)
	if err := encodeHeader(valid, buf); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf...))
	// Seed 2: matching signature, corrupt free count.
	corrupt := append([]byte(nil), buf...)
	corrupt[hdrFixedLen-2] = 0xFF
	corrupt[hdrFixedLen-1] = 0xFF
	f.Add(corrupt)
	// Seed 3: garbage.
	f.Add([]byte("short"))
	f.Add(make([]byte, hdrFixedLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic, matching signature or not.
		if _, _, err := decodeHeader(data, sig); err != nil {
			_ = err // errors are fine; panics are not
		}
		// Force the signature path: make the prefix match so parsing runs.
		if len(data) >= hdrFixedLen {
			forced := append([]byte(nil), data...)
			copy(forced, sig[:])
			h, ok, err := decodeHeader(forced, sig)
			if err != nil || !ok {
				return
			}
			// Round trip: what decoded must re-encode and decode identically.
			out := make([]byte, len(forced))
			if err := encodeHeader(h, out); err != nil {
				t.Fatalf("re-encode of decoded header failed: %v", err)
			}
			h2, ok, err := decodeHeader(out, sig)
			if err != nil || !ok {
				t.Fatalf("re-decode failed: ok=%v err=%v", ok, err)
			}
			if h2.size != h.size || h2.nblocks != h.nblocks || h2.flags != h.flags ||
				h2.root.Single != h.root.Single || h2.root.Double != h.root.Double ||
				len(h2.free) != len(h.free) {
				t.Fatalf("header round trip mismatch: %+v vs %+v", h, h2)
			}
		}
	})
}

// FuzzDecodeSuper feeds arbitrary bytes to the superblock decoder (block 0
// is plaintext and attacker-writable on a seized disk, so this parser sees
// fully untrusted input). It must never panic, and a successful decode must
// round-trip through encodeSuper.
func FuzzDecodeSuper(f *testing.F) {
	sb := &superblock{
		blockSize: 512, numBlocks: 8192, bmStart: 1, bmLen: 2,
		inoStart: 3, inoLen: 8, dataStart: 11, maxPlain: 64,
		pctAband: 0.01, freeMin: 0, freeMax: 10, nDummy: 2,
		dummyAvg: 2048, seed: 1, nAbandoned: 80,
		headerProbe: 1 << 17, freeStop: 64, flags: flagDeterministicKeys,
	}
	buf := make([]byte, 512)
	if err := encodeSuper(sb, buf); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf...))
	f.Add([]byte("STEGFS03 truncated"))
	f.Add(make([]byte, superblockLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeSuper(data)
		if err != nil {
			return
		}
		out := make([]byte, superblockLen)
		if err := encodeSuper(got, out); err != nil {
			t.Fatalf("re-encode of decoded superblock failed: %v", err)
		}
		got2, err := decodeSuper(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if math.IsNaN(got.pctAband) && math.IsNaN(got2.pctAband) {
			// NaN != NaN would fail the struct comparison below even though
			// the round trip preserved the bytes.
			got.pctAband, got2.pctAband = 0, 0
		}
		if *got2 != *got {
			t.Fatalf("superblock round trip mismatch:\n%+v\n%+v", got, got2)
		}
	})
}

// FuzzDecodeEntries feeds arbitrary bytes to the directory-payload decoder
// behind every UAK-directory and hidden-directory load. It must never panic
// or size an allocation by an unchecked entry count, and a successful decode
// must survive a round trip through encodeEntries.
func FuzzDecodeEntries(f *testing.F) {
	f.Add(encodeEntries([]Entry{
		{Name: "doc", Phys: "alice/doc", FAK: []byte("0123456789abcdef"), Flags: FlagFile},
		{Name: "sub", Phys: "alice/sub", FAK: []byte("fedcba9876543210"), Flags: FlagDir},
	}))
	f.Add(encodeEntries(nil))
	f.Add([]byte{0x10, 0, 0, 0}) // claims 2^28 entries in an empty body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("xyz"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeEntries(data)
		if err != nil {
			return
		}
		again, err := decodeEntries(encodeEntries(got))
		if err != nil {
			t.Fatalf("re-decode of encoded entries failed: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("entries round trip mismatch:\n%+v\n%+v", got, again)
		}
	})
}

// TestDecodeEntriesRejectsImpossibleCount: a 4-byte payload claiming 2^28
// entries is an error, not a 17 GB allocation.
func TestDecodeEntriesRejectsImpossibleCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := decodeEntries([]byte{0x10, 0, 0, 0}); err == nil {
		t.Fatal("decodeEntries accepted a count the payload cannot hold")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the payload allocated %d bytes", grew)
	}
}
