package ptree

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

// FuzzParsePtrs feeds arbitrary pointer blocks and pointer limits to the
// decoder every indirect-block read goes through (a corrupt or hostile
// pointer block is raw disk content). It must never panic, must return
// exactly the non-nil prefix of the block capped at the limit, and what it
// returns must survive a round trip through writePtrBlock and readPtrBlock.
func FuzzParsePtrs(f *testing.F) {
	block := make([]byte, 64)
	for i, p := range []int64{1001, 1002, -5, 1 << 40} {
		binary.BigEndian.PutUint64(block[i*8:], uint64(p))
	}
	f.Add(block, int64(8))
	f.Add(block, int64(2))
	f.Add(block, int64(-1))
	f.Add(block, int64(1<<62))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 7}, int64(100))
	f.Add([]byte{}, int64(1))

	f.Fuzz(func(t *testing.T, data []byte, maxPtrs int64) {
		// parsePtrs is only ever handed a whole block.
		io := newMemIO(len(data) &^ 7)
		buf := data[:io.BlockSize()]
		got := parsePtrs(buf, maxPtrs, nil)

		limit := min(maxPtrs, ptrsPerBlock(io))
		if int64(len(got)) > max(limit, 0) {
			t.Fatalf("parsed %d pointers, limit %d", len(got), limit)
		}
		for i, p := range got {
			if p == NilBlock {
				t.Fatalf("pointer %d is NilBlock", i)
			}
			if want := int64(binary.BigEndian.Uint64(buf[i*8:])); p != want {
				t.Fatalf("pointer %d = %d, block holds %d", i, p, want)
			}
		}
		if n := int64(len(got)); n < limit && binary.BigEndian.Uint64(buf[n*8:]) != uint64(NilBlock) {
			t.Fatalf("stopped at pointer %d before the limit %d without a NilBlock", n, limit)
		}

		b, err := writePtrBlock(io, newSeqAlloc().alloc, got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := readPtrBlock(io, b, 0, maxPtrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("pointer round trip mismatch:\n%v\n%v", got, again)
		}
	})
}

// FuzzRootRoundTrip pins the Root codec that hidden-file headers and plain
// inodes store their pointers with: Get reads nDirect+2 big-endian
// PtrSize-byte slots from the start of any buffer that holds them and
// reuses the root's Direct capacity, and Put writes back exactly the bytes
// Get read.
func FuzzRootRoundTrip(f *testing.F) {
	buf := make([]byte, 26*PtrSize)
	for i := range 26 {
		binary.BigEndian.PutUint64(buf[i*PtrSize:], uint64(1000+i))
	}
	f.Add(buf, 24)
	f.Add(buf, 0)
	f.Add(buf[:3*PtrSize], 1)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 1}, 0)

	f.Fuzz(func(t *testing.T, data []byte, nDirect int) {
		if nDirect < 0 || (nDirect+2)*PtrSize > len(data) {
			return
		}
		r := NewRoot(64)
		store := &r.Direct[:1][0]
		n := r.Get(data, nDirect)
		if n != (nDirect+2)*PtrSize || len(r.Direct) != nDirect {
			t.Fatalf("Get read %d bytes into %d direct slots, want %d and %d", n, len(r.Direct), (nDirect+2)*PtrSize, nDirect)
		}
		if nDirect > 0 && nDirect <= 64 && &r.Direct[0] != store {
			t.Fatal("Get did not reuse the root's Direct capacity")
		}
		for i, p := range append(slices.Clone(r.Direct), r.Single, r.Double) {
			if want := int64(binary.BigEndian.Uint64(data[i*PtrSize:])); p != want {
				t.Fatalf("slot %d = %d, buffer holds %d", i, p, want)
			}
		}
		out := make([]byte, len(data))
		if m := r.Put(out); m != n || !bytes.Equal(out[:m], data[:n]) {
			t.Fatalf("Put wrote %d bytes %x, Get read %d bytes %x", m, out[:m], n, data[:n])
		}
	})
}
