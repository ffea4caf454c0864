package stegdb

import (
	"bytes"
	"runtime"
	"testing"
)

// allocTable builds an 8-partition table of rows 8-byte keys and 100-byte
// values on a memView, committed, so every page is resident in the page
// caches.
func allocTable(t *testing.T, withHash bool, rows int) *PartitionedTable {
	t.Helper()
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("coverage and race instrumentation allocate")
	}
	tab, err := CreatePartitionedTable(&memView{files: map[string][]byte{}}, "t", 8, withHash, 64)
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

// TestCachedGetAllocatesOnlyValue: a cached Get walks the hash chain or the
// B-link descent in pooled page buffers, so its one allocation is the value
// it returns.
func TestCachedGetAllocatesOnlyValue(t *testing.T) {
	for _, withHash := range []bool{true, false} {
		tab := allocTable(t, withHash, 2000)
		key := u64key(1234)
		allocs := testing.AllocsPerRun(200, func() {
			if v, ok, err := tab.Get(key); err != nil || !ok || len(v) != 100 {
				t.Fatalf("Get = %d bytes, %v, %v", len(v), ok, err)
			}
		})
		if allocs != 1 {
			t.Errorf("hash=%v: cached Get allocates %.1f objects/op, want 1 (the value)", withHash, allocs)
		}
	}
}

// TestRangeAllocsIndependentOfRows: a Range over 8 partitions allocates per
// partition (one snapshot each) and per call, never per row, page or entry:
// a 400-row Range allocates exactly what a 50-row one does.
func TestRangeAllocsIndependentOfRows(t *testing.T) {
	tab := allocTable(t, true, 2000)
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

// TestTreeIterReturnsBuffers: every treeIter hands its page buffer back to
// the pool on every exit — exhaustion, fn returning false, and an iterator
// error — so repeated Ranges draw their buffers from the pool and allocate
// less than one page per call. A leaked buffer would cost a fresh PageSize
// allocation each time.
func TestTreeIterReturnsBuffers(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("coverage and race instrumentation allocate")
	}
	pg, err := CreatePager(&memView{files: map[string][]byte{}}, "t")
	if err != nil {
		t.Fatal(err)
	}
	tree := NewBTree(pg)
	for i := 0; i < 400; i++ {
		if err := tree.Put(u64key(i), bytes.Repeat([]byte{'v'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	good := tree.Snapshot()
	defer good.Close()

	// A second tree whose second leaf is corrupt: a Range over it fails
	// when it crosses to that leaf.
	pg2, err := CreatePager(&memView{files: map[string][]byte{}}, "u")
	if err != nil {
		t.Fatal(err)
	}
	tree2 := NewBTree(pg2)
	for i := 0; i < 400; i++ {
		if err := tree2.Put(u64key(i), bytes.Repeat([]byte{'v'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tree2.load(tree2.root())
	if err != nil || root.leaf {
		t.Fatalf("want an internal root, got err %v", err)
	}
	junk := bytes.Repeat([]byte{0xEE}, PageSize)
	if err := pg2.WritePage(root.children[1], junk); err != nil {
		t.Fatal(err)
	}
	bad := tree2.Snapshot()
	defer bad.Close()

	for _, c := range []struct {
		name    string
		snaps   []*TreeSnapshot
		stop    int // fn returns false at this row; 0 = never
		wantErr bool
	}{
		{"exhaustion", []*TreeSnapshot{good}, 0, false},
		{"fn-false", []*TreeSnapshot{good, good, good}, 10, false},
		{"error", []*TreeSnapshot{good, bad, good}, 0, true},
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
			t.Errorf("%s: Range allocates %.0f bytes per call, a page buffer leaked", c.name, b)
		}
	}
}

// TestHashIndexLongChains drives the in-place chain walk over multi-page
// chains: one bucket, so inserts fill the head page, prepend new heads and
// land in a head the walk has already left behind; deleting a run of keys
// empties and unlinks pages in the middle of the chain and at its head.
func TestHashIndexLongChains(t *testing.T) {
	pg, err := CreatePager(&memView{files: map[string][]byte{}}, "h")
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHashIndex(pg, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]int{} // key -> version
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i + live[i])}, 150+i%40) }
	put := func(from, to, step int) {
		for i := from; i < to; i += step {
			live[i]++
			if err := h.Put(u64key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := func(from, to int, keep func(int) bool) {
		for i := from; i < to; i++ {
			if !keep(i) {
				if found, err := h.Delete(u64key(i)); err != nil || !found {
					t.Fatalf("delete %d: %v %v", i, found, err)
				}
				delete(live, i)
			}
		}
	}
	check := func(phase string) {
		t.Helper()
		for i := 0; i < 300; i++ {
			v, ok, err := h.Get(u64key(i))
			_, want := live[i]
			if err != nil || ok != want || (ok && !bytes.Equal(v, val(i))) {
				t.Fatalf("%s: key %d: ok=%v err=%v, want present=%v", phase, i, ok, err, want)
			}
		}
		if n, err := h.Count(); err != nil || n != int64(len(live)) {
			t.Fatalf("%s: Count = %d, %v; want %d", phase, n, err, len(live))
		}
	}
	put(0, 200, 1)
	check("insert")
	// About 20 entries fit a page; a fresh insert that skipped the head
	// would prepend a page each time.
	if pages := pg.NumPages(); pages > 20 {
		t.Fatalf("200 entries took %d pages", pages)
	}
	put(0, 200, 3) // replacements, some of which grow
	check("replace")
	del(40, 160, func(int) bool { return false }) // empties middle pages
	check("delete run")
	put(200, 260, 1) // fresh inserts into a chain with holes
	check("refill")
	del(0, 260, func(i int) bool { _, ok := live[i]; return !ok || i%5 == 0 })
	check("thin")
}
