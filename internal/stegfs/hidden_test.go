package stegfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"stegfs/internal/fsapi"
	"stegfs/internal/ptree"
	"stegfs/internal/sgcrypto"
)

func TestHeaderCodecRoundTrip(t *testing.T) {
	h := &header{
		sig:     sgcrypto.Signature("a/b", []byte("k")),
		flags:   FlagFile,
		size:    999,
		nblocks: 2,
		root:    ptree.NewRoot(hdrNumDirect),
		free:    []int64{5, 9, 200},
	}
	h.root.Direct[0], h.root.Direct[1] = 44, 45
	h.root.Single = 46
	buf := make([]byte, 512)
	if err := encodeHeader(h, buf); err != nil {
		t.Fatal(err)
	}
	got, ok, err := decodeHeader(buf, h.sig)
	if err != nil || !ok {
		t.Fatalf("decode: ok=%v err=%v", ok, err)
	}
	if got.size != h.size || got.nblocks != h.nblocks || got.flags != h.flags {
		t.Fatalf("fields mismatch: %+v", got)
	}
	if got.root.Direct[0] != 44 || got.root.Single != 46 {
		t.Fatal("root mismatch")
	}
	if len(got.free) != 3 || got.free[2] != 200 {
		t.Fatalf("free list mismatch: %v", got.free)
	}
}

func TestHeaderSignatureMismatch(t *testing.T) {
	h := &header{sig: sgcrypto.Signature("x", []byte("y")), root: ptree.NewRoot(hdrNumDirect)}
	buf := make([]byte, 512)
	if err := encodeHeader(h, buf); err != nil {
		t.Fatal(err)
	}
	_, ok, err := decodeHeader(buf, sgcrypto.Signature("x", []byte("z")))
	if err != nil || ok {
		t.Fatalf("wrong signature must not match: ok=%v err=%v", ok, err)
	}
}

func TestHeaderFreeCapacity(t *testing.T) {
	capacity := freeCapacity(512)
	if capacity < 10 {
		t.Fatalf("512-byte block holds only %d pool entries; Table 1 default needs 10", capacity)
	}
	h := &header{root: ptree.NewRoot(hdrNumDirect), free: make([]int64, capacity+1)}
	if err := encodeHeader(h, make([]byte, 512)); err == nil {
		t.Fatal("over-capacity pool should fail to encode")
	}
}

func TestHiddenCreateReadWriteDelete(t *testing.T) {
	fs, _ := newTestFS(t, 8192, 512, nil)
	view := fs.NewHiddenView("u")
	free0 := fs.FreeBlocks()

	want := mkPayload(40_000, 7)
	if err := view.Create("f", want); err != nil {
		t.Fatal(err)
	}
	got, err := view.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}

	// In-place overwrite (same block count).
	want2 := mkPayload(39_000, 9)
	if err := view.Write("f", want2); err != nil {
		t.Fatal(err)
	}
	if got, _ = view.Read("f"); !bytes.Equal(got, want2) {
		t.Fatal("in-place write mismatch")
	}

	// Shrinking write: blocks return to the pool / volume.
	want3 := mkPayload(5_000, 3)
	if err := view.Write("f", want3); err != nil {
		t.Fatal(err)
	}
	if got, _ = view.Read("f"); !bytes.Equal(got, want3) {
		t.Fatal("shrink write mismatch")
	}

	// Growing write.
	want4 := mkPayload(60_000, 5)
	if err := view.Write("f", want4); err != nil {
		t.Fatal(err)
	}
	if got, _ = view.Read("f"); !bytes.Equal(got, want4) {
		t.Fatal("grow write mismatch")
	}

	if err := view.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := view.Read("f"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("deleted file should be gone, got %v", err)
	}
	if fs.FreeBlocks() != free0 {
		t.Fatalf("delete leaked blocks: free %d -> %d", free0, fs.FreeBlocks())
	}
}

func mkPayload(n int, tag byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = tag ^ byte(i*31)
	}
	return out
}

func TestHiddenWrongKeyIndistinguishable(t *testing.T) {
	fs, _ := newTestFS(t, 4096, 512, nil)
	if _, err := fs.createHidden("u/f", []byte("right"), FlagFile, mkPayload(2000, 1)); err != nil {
		t.Fatal(err)
	}
	// Wrong key and nonexistent name produce the identical error class.
	_, errWrongKey := fs.probeHeader("u/f", []byte("wrong"))
	_, errNoFile := fs.probeHeader("u/nothing", []byte("right"))
	if !errors.Is(errWrongKey, fsapi.ErrNotFound) || !errors.Is(errNoFile, fsapi.ErrNotFound) {
		t.Fatalf("want ErrNotFound for both: %v / %v", errWrongKey, errNoFile)
	}
}

func TestHiddenHeaderRelocatable(t *testing.T) {
	// Two objects whose first PRBG candidates collide: the second must land
	// on a later candidate and still be found.
	fs, _ := newTestFS(t, 4096, 512, nil)
	// Occupy many blocks so collisions happen organically.
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("u/f%d", i)
		if _, err := fs.createHidden(name, []byte("k"), FlagFile, mkPayload(3000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("u/f%d", i)
		r, err := fs.open(name, []byte("k"), false)
		if err != nil {
			t.Fatalf("lost %s: %v", name, err)
		}
		data, err := fs.readHidden(r)
		fs.release(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, mkPayload(3000, byte(i))) {
			t.Fatalf("%s content mismatch", name)
		}
	}
}

func TestHiddenDuplicateCreateRefused(t *testing.T) {
	fs, _ := newTestFS(t, 4096, 512, nil)
	if _, err := fs.createHidden("u/f", []byte("k"), FlagFile, mkPayload(100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.createHidden("u/f", []byte("k"), FlagFile, mkPayload(100, 2)); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
}

func TestFreePoolSeededAtCreate(t *testing.T) {
	fs, _ := newTestFS(t, 8192, 512, func(p *Params) { p.FreeMax = 10 })
	r, err := fs.createHidden("u/f", []byte("k"), FlagFile, mkPayload(512, 1))
	if err != nil {
		t.Fatal(err)
	}
	// "StegFS straightaway allocates several blocks to the file": after a
	// 1-block write from a 10-block pool, the pool holds FreeMax-1...FreeMax
	// blocks (top-ups only below FreeMin=0).
	if len(r.hdr.free) == 0 {
		t.Fatal("free pool empty after create")
	}
	// Pool blocks are marked used in the bitmap but hold no data.
	for _, b := range r.hdr.free {
		if !fs.alloc.Test(b) {
			t.Fatalf("pool block %d not marked in bitmap", b)
		}
	}
}

func TestFreePoolTopUpAtFreeMin(t *testing.T) {
	fs, _ := newTestFS(t, 8192, 512, func(p *Params) { p.FreeMin = 4; p.FreeMax = 8 })
	r, err := fs.createHidden("u/f", []byte("k"), FlagFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Take blocks until the pool would dip below FreeMin; it must top up.
	for i := 0; i < 40; i++ {
		if _, err := fs.poolTake(r); err != nil {
			t.Fatal(err)
		}
		if len(r.hdr.free) < fs.params.FreeMin {
			t.Fatalf("pool fell below FreeMin: %d < %d", len(r.hdr.free), fs.params.FreeMin)
		}
	}
}

func TestFreePoolCapAtFreeMax(t *testing.T) {
	fs, _ := newTestFS(t, 8192, 512, func(p *Params) { p.FreeMax = 6 })
	r, err := fs.createHidden("u/f", []byte("k"), FlagFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	free0 := fs.alloc.FreeBlocks()
	// Give back many blocks: the pool absorbs up to FreeMax, the rest go to
	// the volume.
	given := make([]int64, 0, 20)
	for i := 0; i < 20; i++ {
		b, err := fs.alloc.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		given = append(given, b)
	}
	for _, b := range given {
		fs.poolGive(r, b)
	}
	if len(r.hdr.free) > fs.params.FreeMax {
		t.Fatalf("pool exceeded FreeMax: %d > %d", len(r.hdr.free), fs.params.FreeMax)
	}
	// Net effect: pool absorbed (FreeMax - initial) blocks; the rest were
	// freed back, so the free count dropped by exactly the pool growth.
	expectedDrop := int64(fs.params.FreeMax - len(given)) // negative: freed back
	_ = expectedDrop
	if fs.alloc.FreeBlocks() < free0-int64(fs.params.FreeMax) {
		t.Fatal("poolGive leaked allocations")
	}
}

func TestHiddenBlocksAccounting(t *testing.T) {
	fs, _ := newTestFS(t, 8192, 512, nil)
	r, err := fs.createHidden("u/f", []byte("k"), FlagFile, mkPayload(30*512, 1))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.hiddenBlocks(r)
	if err != nil {
		t.Fatal(err)
	}
	// 30 data + 1 header + 1 single-indirect (30 > 24 direct) + pool.
	want := 30 + 1 + 1 + len(r.hdr.free)
	if len(blocks) != want {
		t.Fatalf("hiddenBlocks = %d, want %d", len(blocks), want)
	}
	seen := map[int64]bool{}
	for _, b := range blocks {
		if seen[b] {
			t.Fatalf("block %d listed twice", b)
		}
		seen[b] = true
		if !fs.alloc.Test(b) {
			t.Fatalf("block %d not marked used", b)
		}
	}
}

func TestHiddenFileLargeNeedsDoubleIndirect(t *testing.T) {
	fs, _ := newTestFS(t, 16384, 512, nil)
	view := fs.NewHiddenView("u")
	// 512B blocks: 24 direct + 64 single = 88; force double-indirect.
	want := mkPayload(512*200, 2)
	if err := view.Create("big", want); err != nil {
		t.Fatal(err)
	}
	got, err := view.Read("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("double-indirect round trip failed")
	}
}

func TestViewStatAndBlocks(t *testing.T) {
	fs, _ := newTestFS(t, 4096, 512, nil)
	view := fs.NewHiddenView("u")
	if err := view.Create("f", mkPayload(1500, 1)); err != nil {
		t.Fatal(err)
	}
	fi, err := view.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 1500 || fi.Blocks != 3 {
		t.Fatalf("Stat = %+v", fi)
	}
	data, all, err := view.BlocksOf("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 3 {
		t.Fatalf("data blocks = %d, want 3", len(data))
	}
	if len(all) < len(data)+1 {
		t.Fatalf("all blocks = %d, want >= %d", len(all), len(data)+1)
	}
}

func TestViewCursors(t *testing.T) {
	fs, _ := newTestFS(t, 4096, 512, nil)
	view := fs.NewHiddenView("u")
	want := mkPayload(4000, 1)
	if err := view.Create("f", want); err != nil {
		t.Fatal(err)
	}
	rc, err := view.ReadCursor("f")
	if err != nil {
		t.Fatal(err)
	}
	steps, err := fsapi.Drain(rc)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 8 {
		t.Fatalf("read cursor %d steps, want 8", steps)
	}
	want2 := mkPayload(4000, 9)
	wc, err := view.WriteCursor("f", want2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsapi.Drain(wc); err != nil {
		t.Fatal(err)
	}
	got, err := view.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want2) {
		t.Fatal("cursor write mismatch")
	}
	if _, err := view.WriteCursor("f", mkPayload(100, 1)); err == nil {
		t.Fatal("size-changing write cursor should fail")
	}
}

func TestPlainAndHiddenCoexist(t *testing.T) {
	fs, _ := newTestFS(t, 8192, 512, nil)
	view := fs.NewHiddenView("u")
	plainWant := mkPayload(20_000, 1)
	hiddenWant := mkPayload(20_000, 2)
	if err := fs.Create("plain", plainWant); err != nil {
		t.Fatal(err)
	}
	if err := view.Create("hidden", hiddenWant); err != nil {
		t.Fatal(err)
	}
	// Interleave writes; neither side may clobber the other.
	if err := fs.Write("plain", plainWant); err != nil {
		t.Fatal(err)
	}
	if err := view.Write("hidden", hiddenWant); err != nil {
		t.Fatal(err)
	}
	gotP, err := fs.Read("plain")
	if err != nil {
		t.Fatal(err)
	}
	gotH, err := view.Read("hidden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotP, plainWant) || !bytes.Equal(gotH, hiddenWant) {
		t.Fatal("plain/hidden interference")
	}
	// The central directory must not reference any hidden block.
	refs, err := fs.PlainReferencedBlocks()
	if err != nil {
		t.Fatal(err)
	}
	_, all, err := view.BlocksOf("hidden")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range all {
		if refs[b] {
			t.Fatalf("central directory references hidden block %d", b)
		}
	}
}
