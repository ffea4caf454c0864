package stegdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// newView provisions a StegFS volume and a user view for database tests.
func newView(t *testing.T, blocks int64) (*stegfs.HiddenView, *vdisk.MemStore) {
	t.Helper()
	store, err := vdisk.NewMemStore(blocks, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	p := stegfs.DefaultParams()
	p.NDummy = 2
	p.DummyAvgSize = 8 << 10
	p.DeterministicKeys = true
	p.Seed = 42
	fs, err := stegfs.Format(store, p)
	if err != nil {
		t.Fatal(err)
	}
	return fs.NewHiddenView("db"), store
}

// u64key encodes an integer row key big-endian, so keys sort numerically.
func u64key(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)) }

func TestPagerAllocReadWrite(t *testing.T) {
	view, _ := newView(t, 16<<10)
	pg, err := CreatePager(view, "db1")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 10)
	for i := range ids {
		id, err := pg.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		buf := bytes.Repeat([]byte{byte(i + 1)}, PageSize)
		if err := pg.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		buf := make([]byte, PageSize)
		if err := pg.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) || buf[PageSize-1] != byte(i+1) {
			t.Fatalf("page %d content mismatch", id)
		}
	}
	// Bounds.
	if err := pg.ReadPage(0, make([]byte, PageSize)); err == nil {
		t.Fatal("meta page must not be readable as data")
	}
	if err := pg.ReadPage(999, make([]byte, PageSize)); err == nil {
		t.Fatal("out-of-range page read should fail")
	}
}

func TestPagerFreeListRecycles(t *testing.T) {
	view, _ := newView(t, 16<<10)
	pg, err := CreatePager(view, "db1")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := pg.AllocPage()
	b, _ := pg.AllocPage()
	grown := pg.NumPages()
	if err := pg.FreePage(a); err != nil {
		t.Fatal(err)
	}
	if err := pg.FreePage(b); err != nil {
		t.Fatal(err)
	}
	c, _ := pg.AllocPage()
	d, _ := pg.AllocPage()
	if pg.NumPages() != grown {
		t.Fatalf("free list not recycled: %d pages, had %d", pg.NumPages(), grown)
	}
	if (c != a && c != b) || (d != a && d != b) || c == d {
		t.Fatalf("recycled ids wrong: %d %d from {%d %d}", c, d, a, b)
	}
	// Recycled pages come back zeroed.
	buf := make([]byte, PageSize)
	if err := pg.ReadPage(c, buf); err != nil {
		t.Fatal(err)
	}
	for _, x := range buf {
		if x != 0 {
			t.Fatal("recycled page not zeroed")
		}
	}
}

func TestPagerPersistence(t *testing.T) {
	view, _ := newView(t, 16<<10)
	pg, err := CreatePager(view, "db1")
	if err != nil {
		t.Fatal(err)
	}
	id, _ := pg.AllocPage()
	want := bytes.Repeat([]byte{0x5c}, PageSize)
	if err := pg.WritePage(id, want); err != nil {
		t.Fatal(err)
	}
	// Pages are write-back: Sync is the durability point before reopening.
	if err := pg.Sync(); err != nil {
		t.Fatal(err)
	}
	pg2, err := OpenPager(view, "db1")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := pg2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("pager state lost across reopen")
	}
	if _, err := OpenPager(view, "nosuch"); err == nil {
		t.Fatal("opening a missing database should fail")
	}
}

// TestOpenPagerRequiresJournal: every commit goes through the journal, so a
// database whose journal sibling is not reachable through the view must not
// open (it would otherwise run without crash-atomic commits).
func TestOpenPagerRequiresJournal(t *testing.T) {
	view, store := newView(t, 16<<10)
	pg, err := CreatePager(view, "db1")
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	if err := view2.Adopt("db1"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPager(view2, "db1"); err == nil || !strings.Contains(err.Error(), "db1.wal") {
		t.Fatalf("OpenPager without its journal = %v, want an error naming db1.wal", err)
	}
	if err := view2.Adopt("db1.wal"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPager(view2, "db1"); err != nil {
		t.Fatalf("OpenPager with its journal adopted: %v", err)
	}
}

func TestBTreeBasicCRUD(t *testing.T) {
	view, _ := newView(t, 16<<10)
	pg, _ := CreatePager(view, "db1")
	bt := NewBTree(pg)
	if _, ok, _ := bt.Get([]byte("missing")); ok {
		t.Fatal("empty tree found a key")
	}
	if err := bt.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := bt.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := bt.Put([]byte("c"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := bt.Get([]byte("b"))
	if err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q %v %v", v, ok, err)
	}
	// Replace.
	if err := bt.Put([]byte("b"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = bt.Get([]byte("b"))
	if string(v) != "two" {
		t.Fatal("replace failed")
	}
	// Delete.
	found, err := bt.Delete([]byte("b"))
	if err != nil || !found {
		t.Fatalf("Delete = %v %v", found, err)
	}
	if _, ok, _ := bt.Get([]byte("b")); ok {
		t.Fatal("deleted key still present")
	}
	if found, _ := bt.Delete([]byte("zz")); found {
		t.Fatal("deleting a missing key reported found")
	}
	if err := bt.Put(nil, []byte("x")); err == nil {
		t.Fatal("empty key should be rejected")
	}
}

func TestBTreeManyKeysSplitsAndOrder(t *testing.T) {
	view, _ := newView(t, 64<<10)
	pg, _ := CreatePager(view, "db1")
	bt := NewBTree(pg)
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	for _, i := range perm {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val := []byte(fmt.Sprintf("val-%d", i*i))
		if err := bt.Put(key, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	h, err := bt.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Fatalf("3000 keys but height %d — splits never happened", h)
	}
	// Every key resolves.
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		v, ok, err := bt.Get(key)
		if err != nil || !ok {
			t.Fatalf("lost key %d (%v)", i, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i*i) {
			t.Fatalf("key %d wrong value", i)
		}
	}
	// Scan yields sorted order, all keys exactly once.
	var scanned []string
	if err := bt.Scan(func(k, v []byte) bool {
		scanned = append(scanned, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != n {
		t.Fatalf("scan saw %d keys, want %d", len(scanned), n)
	}
	if !sort.StringsAreSorted(scanned) {
		t.Fatal("scan not in key order")
	}
}

func TestBTreeDeleteHalf(t *testing.T) {
	view, _ := newView(t, 64<<10)
	pg, _ := CreatePager(view, "db1")
	bt := NewBTree(pg)
	const n = 800
	for i := 0; i < n; i++ {
		if err := bt.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		found, err := bt.Delete([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	for i := 0; i < n; i++ {
		_, ok, err := bt.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if ok != (i%2 == 1) {
			t.Fatalf("key %d presence = %v", i, ok)
		}
	}
}

func TestBTreeLargeValues(t *testing.T) {
	view, _ := newView(t, 64<<10)
	pg, _ := CreatePager(view, "db1")
	bt := NewBTree(pg)
	big := bytes.Repeat([]byte{7}, MaxEntry-10)
	if err := bt.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	v, ok, err := bt.Get([]byte("big"))
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatal("large value round trip failed")
	}
	if err := bt.Put([]byte("too"), bytes.Repeat([]byte{8}, MaxEntry+1)); err == nil {
		t.Fatal("oversized entry should be rejected")
	}
}

func TestHashIndexCRUD(t *testing.T) {
	view, _ := newView(t, 64<<10)
	pg, _ := CreatePager(view, "db1")
	h, err := NewHashIndex(pg, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := h.Put([]byte(fmt.Sprintf("hk%05d", i)), []byte(fmt.Sprintf("hv%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := h.Get([]byte(fmt.Sprintf("hk%05d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("hv%d", i) {
			t.Fatalf("get %d: %q %v %v", i, v, ok, err)
		}
	}
	// Replace.
	if err := h.Put([]byte("hk00001"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	v, _, _ := h.Get([]byte("hk00001"))
	if string(v) != "fresh" {
		t.Fatal("hash replace failed")
	}
	// Delete.
	for i := 0; i < n; i += 3 {
		found, err := h.Delete([]byte(fmt.Sprintf("hk%05d", i)))
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	for i := 0; i < n; i++ {
		_, ok, _ := h.Get([]byte(fmt.Sprintf("hk%05d", i)))
		if ok != (i%3 != 0) {
			t.Fatalf("key %d presence %v", i, ok)
		}
	}
	if found, _ := h.Delete([]byte("never")); found {
		t.Fatal("missing delete reported found")
	}
}

func TestHashIndexPersistence(t *testing.T) {
	view, _ := newView(t, 32<<10)
	pg, _ := CreatePager(view, "db1")
	h, err := NewHashIndex(pg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := pg.Sync(); err != nil {
		t.Fatal(err)
	}
	pg2, err := OpenPager(view, "db1")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHashIndex(pg2, 0) // reopening ignores nBuckets
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := h2.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatal("hash index lost across reopen")
	}
}

func TestTableEndToEnd(t *testing.T) {
	view, _ := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "accounts", 1, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tab.Put(u64key(i), []byte(fmt.Sprintf("row-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	rows, err := tab.Rows()
	if err != nil || rows != n {
		t.Fatalf("Rows = %d %v", rows, err)
	}
	// Point lookups through the hash path and the ordered path agree.
	for i := 0; i < n; i += 17 {
		hv, ok1, _ := tab.Get(u64key(i))
		var k [8]byte
		k[7] = byte(i)
		k[6] = byte(i >> 8)
		bv, ok2, _ := tab.GetOrdered(k[:])
		if !ok1 || !ok2 || !bytes.Equal(hv, bv) {
			t.Fatalf("row %d: hash %q vs btree %q", i, hv, bv)
		}
	}
	// Range query.
	var got []string
	lo := make([]byte, 8)
	hi := make([]byte, 8)
	lo[7], hi[7] = 10, 20
	if err := tab.Range(lo, hi, func(k, v []byte) bool {
		got = append(got, string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "row-10" || got[9] != "row-19" {
		t.Fatalf("range [10,20) = %v", got)
	}
	// Delete through both structures.
	found, err := tab.Delete(lo)
	if err != nil || !found {
		t.Fatal("table delete failed")
	}
	if _, ok, _ := tab.Get(lo); ok {
		t.Fatal("deleted row still visible via hash")
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTablePersistenceAcrossRemount(t *testing.T) {
	store, err := vdisk.NewMemStore(64<<10, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	p := stegfs.DefaultParams()
	p.NDummy = 2
	p.DummyAvgSize = 8 << 10
	p.DeterministicKeys = true
	fs, err := stegfs.Format(store, p)
	if err != nil {
		t.Fatal(err)
	}
	view := fs.NewHiddenView("db")
	tab, err := CreatePartitionedTable(view, "t", 1, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tab.Put(u64key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Sync commits the pager's dirty pages, then barriers the volume.
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}

	// Remount the volume; DeterministicKeys lets a fresh view re-derive the
	// FAK (a real user would keep it in their UAK directory).
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	if _, err := CheckAny(view2, view2.Adopt, "t"); err != nil {
		t.Fatal(err)
	}
	tab2, err := OpenPartitionedTable(view2, "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, ok, err := tab2.Get(u64key(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("row %d lost across remount (%v)", i, err)
		}
	}
	if err := tab2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTableVsMap: arbitrary operation sequences agree with a map.
func TestPropertyTableVsMap(t *testing.T) {
	view, _ := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "prop", 1, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	f := func(ops []uint16) bool {
		for j, op := range ops {
			if j >= 30 {
				break
			}
			key := fmt.Sprintf("k%d", int(op)%40)
			switch op % 3 {
			case 0, 1:
				val := fmt.Sprintf("v%d-%d", op, j)
				if err := tab.Put([]byte(key), []byte(val)); err != nil {
					return false
				}
				ref[key] = val
			case 2:
				found, err := tab.Delete([]byte(key))
				if err != nil {
					return false
				}
				_, inRef := ref[key]
				if found != inRef {
					return false
				}
				delete(ref, key)
			}
		}
		for key, want := range ref {
			got, ok, err := tab.Get([]byte(key))
			if err != nil || !ok || string(got) != want {
				return false
			}
			got2, ok2, err := tab.GetOrdered([]byte(key))
			if err != nil || !ok2 || string(got2) != want {
				return false
			}
		}
		rows, err := tab.Rows()
		return err == nil && rows == int64(len(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
