package stegfs

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"stegfs/internal/vdisk"
)

func newIOView(t *testing.T) *HiddenView {
	t.Helper()
	fs, _ := newTestFS(t, 8192, 512, nil)
	return fs.NewHiddenView("io")
}

func TestReadAtBasics(t *testing.T) {
	v := newIOView(t)
	want := mkPayload(3000, 1)
	if err := v.Create("f", want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	n, err := v.ReadAt("f", buf, 700)
	if err != nil || n != 100 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, want[700:800]) {
		t.Fatal("ReadAt content mismatch")
	}
	// Read straddling a block boundary (512).
	n, err = v.ReadAt("f", buf, 480)
	if err != nil || n != 100 {
		t.Fatalf("straddling ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, want[480:580]) {
		t.Fatal("straddling ReadAt mismatch")
	}
	// Short read at EOF.
	n, err = v.ReadAt("f", buf, 2950)
	if err != io.EOF || n != 50 {
		t.Fatalf("EOF ReadAt = %d, %v", n, err)
	}
	if _, err = v.ReadAt("f", buf, 5000); err != io.EOF {
		t.Fatalf("past-EOF ReadAt err = %v", err)
	}
}

func TestWriteAtInPlace(t *testing.T) {
	v := newIOView(t)
	want := mkPayload(3000, 2)
	if err := v.Create("f", want); err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xAB}, 600) // straddles two block boundaries
	if _, err := v.WriteAt("f", patch, 400); err != nil {
		t.Fatal(err)
	}
	copy(want[400:], patch)
	got, err := v.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("WriteAt corrupted surroundings")
	}
	// Out-of-bounds writes refused.
	if _, err := v.WriteAt("f", patch, 2600); err == nil {
		t.Fatal("write past EOF should fail")
	}
	if _, err := v.WriteAt("f", patch, -1); err == nil {
		t.Fatal("negative offset should fail")
	}
}

func TestResizeGrowShrink(t *testing.T) {
	v := newIOView(t)
	want := mkPayload(1000, 3)
	if err := v.Create("f", want); err != nil {
		t.Fatal(err)
	}
	// Grow within the same block count first (1000 -> 1024).
	if err := v.Resize("f", 1024); err != nil {
		t.Fatal(err)
	}
	got, _ := v.Read("f")
	if len(got) != 1024 || !bytes.Equal(got[:1000], want) {
		t.Fatal("same-shape grow lost data")
	}
	for _, b := range got[1000:] {
		if b != 0 {
			t.Fatal("grown tail not zeroed")
		}
	}
	// Grow across blocks.
	if err := v.Resize("f", 5000); err != nil {
		t.Fatal(err)
	}
	got, _ = v.Read("f")
	if len(got) != 5000 || !bytes.Equal(got[:1000], want) {
		t.Fatal("cross-shape grow lost prefix")
	}
	// Shrink.
	if err := v.Resize("f", 300); err != nil {
		t.Fatal(err)
	}
	got, _ = v.Read("f")
	if len(got) != 300 || !bytes.Equal(got, want[:300]) {
		t.Fatal("shrink lost prefix")
	}
	if err := v.Resize("f", -1); err == nil {
		t.Fatal("negative resize should fail")
	}
}

// TestPropertyReadAtMatchesRead: random windows through ReadAt equal the
// same slices of a whole-file Read.
func TestPropertyReadAtMatchesRead(t *testing.T) {
	v := newIOView(t)
	want := mkPayload(9000, 4)
	if err := v.Create("f", want); err != nil {
		t.Fatal(err)
	}
	f := func(offRaw, lenRaw uint16) bool {
		off := int64(offRaw) % 9000
		l := int(lenRaw)%2000 + 1
		buf := make([]byte, l)
		n, err := v.ReadAt("f", buf, off)
		if err != nil && err != io.EOF {
			return false
		}
		return bytes.Equal(buf[:n], want[off:int(off)+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWriteAtReadAt: random in-place writes are faithfully readable
// and leave everything else intact.
func TestPropertyWriteAtReadAt(t *testing.T) {
	v := newIOView(t)
	ref := mkPayload(8000, 5)
	if err := v.Create("f", append([]byte(nil), ref...)); err != nil {
		t.Fatal(err)
	}
	f := func(offRaw, lenRaw uint16, tag byte) bool {
		off := int(offRaw) % 8000
		l := int(lenRaw)%1000 + 1
		if off+l > 8000 {
			l = 8000 - off
		}
		patch := bytes.Repeat([]byte{tag}, l)
		if _, err := v.WriteAt("f", patch, int64(off)); err != nil {
			return false
		}
		copy(ref[off:], patch)
		got, err := v.Read("f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMoveSpanEdgeRules pins how the payload mover treats partially covered
// edge blocks, counting device block reads across each WriteAt on an
// uncached mount of a 2500-byte file in 1 KiB blocks (blocks 0 and 1 full,
// block 2 holding bytes 2048..2499). Every open reads the header block once
// (the sealer hint skips the probe); all three data pointers are direct, so
// the tree walk reads nothing. A staged edge is read back only when it holds
// file content outside the write; bytes past EOF are not content.
func TestMoveSpanEdgeRules(t *testing.T) {
	store, err := vdisk.NewMemStore(4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	disk := vdisk.NewDisk(store, vdisk.DefaultGeometry())
	p := DefaultParams()
	p.NDummy = 2
	p.DummyAvgSize = 4096
	p.MaxPlainFiles = 64
	fs, err := Format(disk, p)
	if err != nil {
		t.Fatal(err)
	}
	v := fs.NewHiddenView("edges")
	want := mkPayload(2500, 9)
	if err := v.Create("f", append([]byte(nil), want...)); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		got, err := v.Read("f")
		if err != nil {
			t.Fatalf("%s: Read: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content mismatch (len %d, want %d)", label, len(got), len(want))
		}
	}
	cases := []struct {
		label     string
		off, n    int
		wantReads int64 // header + edges read back
	}{
		{"(a) aligned, ends at EOF", 2048, 452, 1},
		{"unaligned start, ends at EOF", 1500, 1000, 2},
		{"(b) aligned, ends before EOF", 1024, 100, 2},
		{"(c) both edges in one block", 1100, 50, 2},
		{"whole blocks", 0, 2048, 1},
	}
	for i, c := range cases {
		patch := bytes.Repeat([]byte{byte(0xA0 + i)}, c.n)
		before := disk.Stats().Reads
		if _, err := v.WriteAt("f", patch, int64(c.off)); err != nil {
			t.Fatalf("%s: WriteAt: %v", c.label, err)
		}
		if reads := disk.Stats().Reads - before; reads != c.wantReads {
			t.Errorf("%s: WriteAt read %d blocks, want %d", c.label, reads, c.wantReads)
		}
		copy(want[c.off:], patch)
		check(c.label)
	}

	// (d) A size that is not a block multiple reads back exactly.
	if got, err := v.Read("f"); err != nil || len(got) != 2500 {
		t.Fatalf("(d) Read = %d bytes, %v; want 2500", len(got), err)
	}

	// (e) A same-shape shrink then grow exposes zeros, not the old bytes.
	if err := v.Resize("f", 2100); err != nil {
		t.Fatal(err)
	}
	if err := v.Resize("f", 2500); err != nil {
		t.Fatal(err)
	}
	clear(want[2100:])
	check("(e) shrink then grow")
}
