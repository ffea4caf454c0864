package ptree

import (
	"encoding/binary"
	"reflect"
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
