package ptree

import (
	"fmt"
	"testing"
	"testing/quick"
)

// memIO is a trivial in-memory BlockIO for tests.
type memIO struct {
	bs   int
	data map[int64][]byte
}

func newMemIO(bs int) *memIO { return &memIO{bs: bs, data: map[int64][]byte{}} }

func (m *memIO) BlockSize() int { return m.bs }

func (m *memIO) ReadBlock(n int64, buf []byte) error {
	b, ok := m.data[n]
	if !ok {
		return fmt.Errorf("memIO: block %d unwritten", n)
	}
	copy(buf, b)
	return nil
}

func (m *memIO) WriteBlock(n int64, buf []byte) error {
	b := make([]byte, len(buf))
	copy(b, buf)
	m.data[n] = b
	return nil
}

// seqAlloc hands out blocks 1000, 1001, ...
type seqAlloc struct{ next int64 }

func newSeqAlloc() *seqAlloc { return &seqAlloc{next: 1000} }

func (a *seqAlloc) alloc() (int64, error) {
	b := a.next
	a.next++
	return b, nil
}

func blockList(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(10 + i*3) // arbitrary, non-contiguous
	}
	return out
}

func TestWriteReadDirectOnly(t *testing.T) {
	io := newMemIO(256)
	alloc := newSeqAlloc()
	blocks := blockList(10)
	root, meta, err := Write(io, alloc.alloc, 24, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta) != 0 {
		t.Fatalf("direct-only file allocated %d indirect blocks", len(meta))
	}
	got, err := Read(io, root, int64(len(blocks)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("got %d blocks, want %d", len(got), len(blocks))
	}
	for i := range got {
		if got[i] != blocks[i] {
			t.Fatalf("block %d: got %d want %d", i, got[i], blocks[i])
		}
	}
}

func TestWriteReadSingleIndirect(t *testing.T) {
	io := newMemIO(256) // 32 pointers per block
	alloc := newSeqAlloc()
	blocks := blockList(24 + 20)
	root, meta, err := Write(io, alloc.alloc, 24, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta) != 1 {
		t.Fatalf("want 1 indirect block, got %d", len(meta))
	}
	if root.Single == NilBlock {
		t.Fatal("single-indirect pointer not set")
	}
	if root.Double != NilBlock {
		t.Fatal("double-indirect should be unused")
	}
	checkRead(t, io, root, blocks)
}

func TestWriteReadDoubleIndirect(t *testing.T) {
	io := newMemIO(256) // 32 ptrs/block: direct 24 + single 32 + double up to 1024
	alloc := newSeqAlloc()
	blocks := blockList(24 + 32 + 100)
	root, meta, err := Write(io, alloc.alloc, 24, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if root.Double == NilBlock {
		t.Fatal("double-indirect pointer not set")
	}
	// meta: 1 single + ceil(100/32)=4 L1 + 1 double = 6
	if len(meta) != 6 {
		t.Fatalf("want 6 indirect blocks, got %d", len(meta))
	}
	checkRead(t, io, root, blocks)

	gotMeta, err := MetaBlocks(io, root, int64(len(blocks)))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMeta) != len(meta) {
		t.Fatalf("MetaBlocks found %d, Write allocated %d", len(gotMeta), len(meta))
	}
}

func TestTooLarge(t *testing.T) {
	io := newMemIO(64) // 8 ptrs/block: max = 4 + 8 + 64 = 76
	alloc := newSeqAlloc()
	if MaxBlocks(4, 64) != 76 {
		t.Fatalf("MaxBlocks = %d, want 76", MaxBlocks(4, 64))
	}
	_, _, err := Write(io, alloc.alloc, 4, blockList(77))
	if err == nil {
		t.Fatal("oversized file should fail")
	}
	// Exactly at the limit is fine.
	root, _, err := Write(io, alloc.alloc, 4, blockList(76))
	if err != nil {
		t.Fatal(err)
	}
	checkRead(t, io, root, blockList(76))
}

func TestFreeReleasesAllMeta(t *testing.T) {
	io := newMemIO(256)
	alloc := newSeqAlloc()
	blocks := blockList(200)
	root, meta, err := Write(io, alloc.alloc, 24, blocks)
	if err != nil {
		t.Fatal(err)
	}
	freed := map[int64]bool{}
	if err := Free(io, root, int64(len(blocks)), func(b int64) { freed[b] = true }); err != nil {
		t.Fatal(err)
	}
	if len(freed) != len(meta) {
		t.Fatalf("freed %d, want %d", len(freed), len(meta))
	}
	for _, b := range meta {
		if !freed[b] {
			t.Fatalf("indirect block %d not freed", b)
		}
	}
}

func TestReadEmptyFile(t *testing.T) {
	io := newMemIO(256)
	root := NewRoot(24)
	got, err := Read(io, root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file read %d blocks", len(got))
	}
}

func TestReadMissingIndirect(t *testing.T) {
	io := newMemIO(256)
	root := NewRoot(24)
	for i := range root.Direct {
		root.Direct[i] = int64(i + 1)
	}
	if _, err := Read(io, root, 30); err == nil {
		t.Fatal("missing single-indirect should error")
	}
}

func checkRead(t *testing.T, io BlockIO, root Root, want []int64) {
	t.Helper()
	got, err := Read(io, root, int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d blocks, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("block %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestPropertyRoundTrip: for any block count within range, Read returns
// exactly what Write stored, in order.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(nRaw uint16) bool {
		io := newMemIO(128) // 16 ptrs/block; max = 8 + 16 + 256 = 280
		alloc := newSeqAlloc()
		n := int(nRaw) % 281
		blocks := make([]int64, n)
		for i := range blocks {
			blocks[i] = int64(1 + i) // distinct, nonzero
		}
		root, _, err := Write(io, alloc.alloc, 8, blocks)
		if err != nil {
			return false
		}
		got, err := Read(io, root, int64(n))
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != blocks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// batchIO wraps memIO with a counting BatchBlockIO implementation.
type batchIO struct {
	*memIO
	batchCalls  int
	batchBlocks int
}

func (b *batchIO) ReadBlocks(ns []int64, bufs [][]byte) error {
	b.batchCalls++
	b.batchBlocks += len(ns)
	for i, n := range ns {
		if err := b.ReadBlock(n, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestReadUsesBatchForL1Indirects: a double-indirect tree read through a
// BatchBlockIO must fetch all L1 pointer blocks in one batched request and
// return the same block list as the plain path.
func TestReadUsesBatchForL1Indirects(t *testing.T) {
	const bs = 64 // 8 pointers per block -> double indirect kicks in fast
	plain := newMemIO(bs)
	alloc := newSeqAlloc()
	nDirect := 4
	blocks := make([]int64, 40) // 4 direct + 8 single + 28 double (4 L1 blocks)
	for i := range blocks {
		blocks[i] = int64(100 + i)
	}
	root, _, err := Write(plain, alloc.alloc, nDirect, blocks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Read(plain, root, int64(len(blocks)))
	if err != nil {
		t.Fatal(err)
	}

	bio := &batchIO{memIO: plain}
	got, err := Read(bio, root, int64(len(blocks)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch path returned %d blocks, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("block %d: batch %d != plain %d", i, got[i], want[i])
		}
	}
	if bio.batchCalls != 1 {
		t.Fatalf("L1 pointer blocks fetched in %d batch calls, want 1", bio.batchCalls)
	}
	if bio.batchBlocks < 2 {
		t.Fatalf("batch covered %d blocks, want all L1 indirects", bio.batchBlocks)
	}
}

// TestReadRangeMatchesRead: for every [from, to) over trees ending in the
// direct, single-indirect and double-indirect regions, a range read returns
// exactly Read()[from:to], through both the plain and the batched IO.
func TestReadRangeMatchesRead(t *testing.T) {
	const bs, nDirect = 64, 4 // 8 pointers per block
	for _, n := range []int{3, 4, 9, 12, 13, 20, 40, 44, 76} {
		plain := newMemIO(bs)
		root, _, err := Write(plain, newSeqAlloc().alloc, nDirect, blockList(n))
		if err != nil {
			t.Fatal(err)
		}
		all, err := Read(plain, root, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, io := range []BlockIO{plain, &batchIO{memIO: plain}} {
			for from := 0; from <= n; from++ {
				for to := from; to <= n; to++ {
					got, err := ReadInto(io, root, int64(n), int64(from), int64(to), nil)
					if err != nil {
						t.Fatalf("n=%d [%d,%d): %v", n, from, to, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(all[from:to]) {
						t.Fatalf("n=%d [%d,%d): got %v, want %v", n, from, to, got, all[from:to])
					}
				}
			}
		}
		if _, err := ReadInto(plain, root, int64(n), 0, int64(n)+1, nil); err == nil {
			t.Fatalf("n=%d: a range past the end should fail", n)
		}
	}
}

// countIO is a batchIO that records every block read, single or batched.
type countIO struct {
	batchIO
	reads []int64
}

func (c *countIO) ReadBlock(n int64, buf []byte) error {
	c.reads = append(c.reads, n)
	return c.memIO.ReadBlock(n, buf)
}

func (c *countIO) ReadBlocks(ns []int64, bufs [][]byte) error {
	c.reads = append(c.reads, ns...)
	return c.batchIO.ReadBlocks(ns, bufs)
}

// TestSpanReadOpensOnlyCoveringBlocks: a hidden file's header holds 24
// direct pointers and the volume's blocks are 1 KiB (128 pointers each), so
// a 2 MiB file ends deep in the double-indirect region, under 15 L1
// blocks. Mapping the 4 KiB at its end — what a 4 KiB WriteAt there needs —
// opens at most 3 pointer blocks: the double-indirect block and the one or
// two L1 blocks under the span. The whole-file read opens all 17.
func TestSpanReadOpensOnlyCoveringBlocks(t *testing.T) {
	const bs, nDirect, n = 1024, 24, 2048
	c := &countIO{batchIO: batchIO{memIO: newMemIO(bs)}}
	blocks := make([]int64, n)
	for i := range blocks {
		blocks[i] = int64(1<<20 + i)
	}
	root, meta, err := Write(c, newSeqAlloc().alloc, nDirect, blocks)
	if err != nil {
		t.Fatal(err)
	}
	// The end of the file, a span inside one L1 block, and one across two.
	for _, r := range [][2]int64{{n - 4, n}, {1400, 1404}, {1814, 1818}} {
		c.reads = nil
		got, err := ReadInto(c, root, n, r[0], r[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(blocks[r[0]:r[1]]) {
			t.Fatalf("span %v mapped to %v", r, got)
		}
		if len(c.reads) > 3 {
			t.Fatalf("span %v opened %d pointer blocks %v, want <= 3", r, len(c.reads), c.reads)
		}
	}
	c.reads = nil
	if _, err := Read(c, root, n); err != nil {
		t.Fatal(err)
	}
	if len(c.reads) != len(meta) {
		t.Fatalf("whole-file read opened %d pointer blocks, tree has %d", len(c.reads), len(meta))
	}
}
