package stegdb

import (
	"bytes"
	"runtime"
	"testing"
)

// allocTable builds an 8-partition table of rows 8-byte keys and 100-byte
// values on a memView, committed, so every page is resident in the page
// caches.
func allocTable(t *testing.T, rows int) *PartitionedTable {
	t.Helper()
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("coverage and race instrumentation allocate")
	}
	tab, err := CreatePartitionedTable(&memView{files: map[string][]byte{}}, "t", 8, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 100)
	for i := 0; i < rows; i++ {
		if err := tab.Put(u64key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestCachedGetAllocatesOnlyValue: a cached Get walks each page of the
// B-link descent in its latched frame, copying nothing, so its one
// allocation is the value it returns.
func TestCachedGetAllocatesOnlyValue(t *testing.T) {
	tab := allocTable(t, 2000)
	key := u64key(1234)
	allocs := testing.AllocsPerRun(200, func() {
		if v, ok, err := tab.Get(key); err != nil || !ok || len(v) != 100 {
			t.Fatalf("Get = %d bytes, %v, %v", len(v), ok, err)
		}
	})
	if allocs != 1 {
		t.Errorf("cached Get allocates %.1f objects/op, want 1 (the value)", allocs)
	}
}

// TestRangeAllocsIndependentOfRows: a Range over 8 partitions allocates per
// partition (one snapshot each) and per call, never per row, page or entry:
// a 400-row Range allocates exactly what a 50-row one does.
func TestRangeAllocsIndependentOfRows(t *testing.T) {
	tab := allocTable(t, 2000)
	rangeAllocs := func(rows int) float64 {
		lo, hi := u64key(100), u64key(100+rows)
		return testing.AllocsPerRun(100, func() {
			n := 0
			if err := tab.Range(lo, hi, func(k, v []byte) bool { n++; return true }); err != nil || n != rows {
				t.Fatalf("Range saw %d rows, want %d (err %v)", n, rows, err)
			}
		})
	}
	a50, a400 := rangeAllocs(50), rangeAllocs(400)
	t.Logf("Range allocs/op: 50 rows %.1f, 400 rows %.1f", a50, a400)
	if a50 != a400 {
		t.Errorf("50-row Range allocates %.1f objects, 400-row %.1f: allocation grows with rows", a50, a400)
	}
	if limit := float64(6*tab.Partitions() + 8); a50 > limit {
		t.Errorf("50-row Range over %d partitions allocates %.1f objects, want <= %.0f", tab.Partitions(), a50, limit)
	}
}

// bytesPerRun is the mean heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTreeIterReturnsBuffers: every treeIter hands its leaf image back to
// the pool on every exit — exhaustion, fn returning false, and an iterator
// error — so repeated Ranges draw their images from the pool and allocate
// less than one page per call. A leaked image would cost a fresh
// allocation of more than PageSize bytes each time.
func TestTreeIterReturnsBuffers(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("coverage and race instrumentation allocate")
	}
	pg := newTestPager(t, &memView{files: map[string][]byte{}}, "t")
	tree := NewBTree(pg)
	for i := 0; i < 400; i++ {
		if err := tree.Put(u64key(i), bytes.Repeat([]byte{'v'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	good := pg.BeginSnapshot()
	defer good.Close()

	// A second tree whose second leaf is corrupt: a Range over it fails
	// when it crosses to that leaf.
	pg2 := newTestPager(t, &memView{files: map[string][]byte{}}, "u")
	tree2 := NewBTree(pg2)
	for i := 0; i < 400; i++ {
		if err := tree2.Put(u64key(i), bytes.Repeat([]byte{'v'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	root, err := loadNode(tree2, tree2.root())
	if err != nil || root.leaf {
		t.Fatalf("want an internal root, got err %v", err)
	}
	junk := bytes.Repeat([]byte{0xEE}, PageSize)
	if err := pg2.writePage(root.children[1], junk, 0); err != nil {
		t.Fatal(err)
	}
	bad := pg2.BeginSnapshot()
	defer bad.Close()

	for _, c := range []struct {
		name    string
		snaps   []*Snapshot
		stop    int // fn returns false at this row; 0 = never
		wantErr bool
	}{
		{"exhaustion", []*Snapshot{good}, 0, false},
		{"fn-false", []*Snapshot{good, good, good}, 10, false},
		{"error", []*Snapshot{good, bad, good}, 0, true},
	} {
		run := func() {
			n := 0
			err := mergeRange(c.snaps, nil, nil, func(k, v []byte) bool { n++; return n != c.stop })
			if (err != nil) != c.wantErr {
				t.Fatalf("%s: Range err = %v, want error %v", c.name, err, c.wantErr)
			}
		}
		b := bytesPerRun(50, run)
		t.Logf("%s: %.0f bytes/op", c.name, b)
		if b >= PageSize {
			t.Errorf("%s: Range allocates %.0f bytes per call, a leaf image leaked", c.name, b)
		}
	}
}
