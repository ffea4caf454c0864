package stegdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"stegfs/internal/stegfs"
)

func TestPartitionedTableCRUDAndMerge(t *testing.T) {
	view, _ := newView(t, 64<<10)
	pt, err := CreatePartitionedTable(view, "pt", 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%05d", i))
		if err := pt.Put(key, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := pt.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("rows = %d, want %d", rows, n)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%05d", i))
		want := fmt.Sprintf("v-%d", i)
		v, ok, err := pt.Get(key)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get %s = %q %v %v", key, v, ok, err)
		}
	}
	// Scan merges the partitions back into global key order.
	var keys []string
	if err := pt.Scan(func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scan saw %d keys, want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("merged scan out of order")
	}
	// Range seeks within the merged space.
	var got []string
	if err := pt.Range([]byte("k00100"), []byte("k00110"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k00100" || got[9] != "k00109" {
		t.Fatalf("range = %v", got)
	}
	// Deletes route to the right partition and the counter follows.
	for i := 0; i < n; i += 2 {
		found, err := pt.Delete([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	rows, _ = pt.Rows()
	if rows != n/2 {
		t.Fatalf("rows after deletes = %d, want %d", rows, n/2)
	}
	if err := pt.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedTableRemountAndCheckAny(t *testing.T) {
	view, store := newView(t, 64<<10)
	pt, err := CreatePartitionedTable(view, "pt", 3, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := pt.Put([]byte(fmt.Sprintf("r%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Sync(); err != nil {
		t.Fatal(err)
	}

	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	files, err := CheckAny(view2, view2.Adopt, "pt")
	if err != nil {
		t.Fatalf("CheckAny: %v (files %v)", err, files)
	}
	// 3 partitions + the journal must all be discovered.
	if !slices.Equal(files, pt.Files()) {
		t.Fatalf("CheckAny found files %v, want %v", files, pt.Files())
	}
	pt2, err := OpenPartitionedTable(view2, "pt")
	if err != nil {
		t.Fatal(err)
	}
	if pt2.Partitions() != 3 {
		t.Fatalf("partitions = %d", pt2.Partitions())
	}
	rows, _ := pt2.Rows()
	if rows != n {
		t.Fatalf("remounted rows = %d, want %d", rows, n)
	}
	for i := 0; i < n; i++ {
		v, ok, err := pt2.Get([]byte(fmt.Sprintf("r%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("remount key %d = %q %v %v", i, v, ok, err)
		}
	}
}

func TestCheckAnyPlainTable(t *testing.T) {
	view, store := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "plain", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tab.Put(u64key(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	files, err := CheckAny(view2, view2.Adopt, "plain")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0] != "plain.p0" || files[1] != "plain.wal" {
		t.Fatalf("files = %v", files)
	}
	if _, err := CheckAny(view2, view2.Adopt, "no-such-table"); err == nil {
		t.Fatal("CheckAny on a missing table must fail")
	}
}

// TestCheckAnyOneFileOldTable: a table of the one-file layout before
// SGDB0002 (hidden file "old", magic SGDB0001, no "old.p0") is reported by
// its format, not as missing, and checking it changes none of its bytes. A
// lone file that is no stegdb file at all is reported as such.
func TestCheckAnyOneFileOldTable(t *testing.T) {
	view, store := newView(t, 64<<10)
	old := make([]byte, 8*PageSize)
	copy(old, pagerMagicV1)
	binary.BigEndian.PutUint64(old[metaNumPages:], 1)
	if err := view.Create("old", old); err != nil {
		t.Fatal(err)
	}
	if err := view.Create("junk", bytes.Repeat([]byte{0xAB}, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := view.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	for _, c := range []struct{ name, want string }{
		{"old", pagerMagicV1},
		{"junk", "not a stegdb file"},
		{"missing", "not found"},
	} {
		if files, err := CheckAny(view2, view2.Adopt, c.name); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("CheckAny(%q) = %v, %v; want an error naming %q", c.name, files, err, c.want)
		}
	}
	got := make([]byte, len(old))
	if _, err := view2.ReadAt("old", got, 0); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("checking the old table changed its bytes (err %v)", err)
	}
}

// TestStegDBPartitionedSnapshotAtomic: a cross-partition snapshot pins one
// instant — under concurrent single-key "transfers" that keep an invariant
// across two partitions (total token count constant), every snapshot must
// observe the invariant intact.
func TestStegDBPartitionedSnapshotAtomic(t *testing.T) {
	view, _ := newView(t, 64<<10)
	pt, err := CreatePartitionedTable(view, "atom", 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs (a<i>, b<i>): together always hold exactly 8 tokens, split as
	// fixed-width "count" values. Writers move a token by updating both keys
	// while holding the snapshot gate shared across BOTH puts — the gate is
	// what makes the two-key move atomic against snapshots.
	const pairs = 8
	for i := 0; i < pairs; i++ {
		if err := pt.Put([]byte(fmt.Sprintf("a%02d", i)), []byte("4")); err != nil {
			t.Fatal(err)
		}
		if err := pt.Put([]byte(fmt.Sprintf("b%02d", i)), []byte("4")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Disjoint pairs per writer: two writers moving the same
				// pair at once would interleave their a/b puts and tear
				// it outside any snapshot's view.
				p := w*(pairs/2) + i%(pairs/2)
				av := byte('0' + byte((i)%9))
				bv := byte('0' + byte(8-(i)%9))
				pt.snapGate.RLock()
				ea := pt.parts[pt.partFor([]byte(fmt.Sprintf("a%02d", p)))].Put([]byte(fmt.Sprintf("a%02d", p)), []byte{av})
				eb := pt.parts[pt.partFor([]byte(fmt.Sprintf("b%02d", p)))].Put([]byte(fmt.Sprintf("b%02d", p)), []byte{bv})
				pt.snapGate.RUnlock()
				if ea != nil || eb != nil {
					errCh <- fmt.Errorf("put: %v %v", ea, eb)
					return
				}
			}
		}(w)
	}
	for iter := 0; iter < 50; iter++ {
		s := pt.Snapshot()
		for i := 0; i < pairs; i++ {
			va, oka, ea := s.Get([]byte(fmt.Sprintf("a%02d", i)))
			vb, okb, eb := s.Get([]byte(fmt.Sprintf("b%02d", i)))
			if ea != nil || eb != nil || !oka || !okb {
				s.Close()
				t.Fatalf("snapshot get pair %d: %v %v %v %v", i, oka, ea, okb, eb)
			}
			if int(va[0]-'0')+int(vb[0]-'0') != 8 {
				s.Close()
				t.Fatalf("iter %d pair %d: snapshot saw torn transfer %q + %q", iter, i, va, vb)
			}
		}
		s.Close()
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := pt.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStegDBPartitionedGroupCommit: many goroutines write and Sync
// concurrently; every Sync call must return only after its own writes are
// committed. Verified by remounting cold after the storm.
func TestStegDBPartitionedGroupCommit(t *testing.T) {
	view, store := newView(t, 64<<10)
	pt, err := CreatePartitionedTable(view, "gc", 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		keysPerG   = 40
	)
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPerG; i++ {
				key := []byte(fmt.Sprintf("g%d-%04d", w, i))
				if err := pt.Put(key, []byte(fmt.Sprintf("val-%d-%d", w, i))); err != nil {
					errCh <- err
					return
				}
				if i%8 == 7 {
					if err := pt.Sync(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := pt.Sync(); err != nil {
		t.Fatal(err)
	}
	checkPageDirtyIndex(t, pt)
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	if _, err := CheckAny(view2, view2.Adopt, "gc"); err != nil {
		t.Fatal(err)
	}
	pt2, err := OpenPartitionedTable(view2, "gc")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := pt2.Rows()
	if rows != goroutines*keysPerG {
		t.Fatalf("remounted rows = %d, want %d", rows, goroutines*keysPerG)
	}
	for w := 0; w < goroutines; w++ {
		for i := 0; i < keysPerG; i++ {
			key := []byte(fmt.Sprintf("g%d-%04d", w, i))
			v, ok, err := pt2.Get(key)
			if err != nil || !ok || string(v) != fmt.Sprintf("val-%d-%d", w, i) {
				t.Fatalf("key %s = %q %v %v", key, v, ok, err)
			}
		}
	}
}

// TestStegDBSnapshotUnderSplitStress: writers force continuous leaf splits
// and root growths while snapshots are taken and scanned. Each writer
// appends sequential keys, so every snapshot must see a contiguous prefix
// of each writer's keys — a split leaking into a pinned snapshot would
// break contiguity or ordering.
func TestStegDBSnapshotUnderSplitStress(t *testing.T) {
	view, _ := newView(t, 64<<10)
	tab, err := CreatePartitionedTable(view, "split", 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	stop := make(chan struct{})
	errCh := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("w%d-%06d", w, i))
				if err := tab.Put(key, []byte(fmt.Sprintf("%s=%d", key, i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for iter := 0; iter < 40; iter++ {
		s := tab.Snapshot()
		last := make([]int, writers)
		for i := range last {
			last[i] = -1
		}
		var count int64
		err := s.Scan(func(k, v []byte) bool {
			count++
			var w, i int
			if _, err := fmt.Sscanf(string(k), "w%d-%06d", &w, &i); err != nil {
				t.Errorf("iter %d: unparseable key %q", iter, k)
				return false
			}
			if i != last[w]+1 {
				t.Errorf("iter %d: writer %d jumped %d -> %d (split leaked into snapshot)", iter, w, last[w], i)
				return false
			}
			last[w] = i
			if want := fmt.Sprintf("%s=%d", k, i); string(v) != want {
				t.Errorf("iter %d: torn row %q = %q", iter, k, v)
				return false
			}
			return true
		})
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		if got := s.Rows(); got != count {
			t.Fatalf("iter %d: snapshot Rows()=%d but scan saw %d", iter, got, count)
		}
		s.Close()
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	checkPageDirtyIndex(t, tab)
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}
	checkPageDirtyIndex(t, tab)
}

// TestBTreeParallelWritersDisjoint: concurrent Put/Delete across disjoint
// key ranges on the bare tree (no table around it), exercising the B-link
// split path and root growth under contention.
func TestBTreeParallelWritersDisjoint(t *testing.T) {
	view, _ := newView(t, 64<<10)
	tree := NewBTree(newTestPager(t, view, "blink"))
	const (
		goroutines = 8
		keysPerG   = 300
	)
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPerG; i++ {
				key := []byte(fmt.Sprintf("g%d-%05d", w, i))
				if err := tree.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					errCh <- err
					return
				}
				if i%7 == 6 { // churn a recent key
					if _, err := tree.Delete([]byte(fmt.Sprintf("g%d-%05d", w, i-3))); err != nil {
						errCh <- err
						return
					}
					if err := tree.Put([]byte(fmt.Sprintf("g%d-%05d", w, i-3)), []byte("back")); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Every key present, scan sorted, height grown past a single leaf.
	var keys []string
	if err := scanTree(tree, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != goroutines*keysPerG {
		t.Fatalf("scan saw %d keys, want %d", len(keys), goroutines*keysPerG)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("scan out of order")
	}
	for w := 0; w < goroutines; w++ {
		for i := 0; i < keysPerG; i++ {
			key := []byte(fmt.Sprintf("g%d-%05d", w, i))
			if _, ok, err := tree.Get(key); err != nil || !ok {
				t.Fatalf("key %s: ok=%v err=%v", key, ok, err)
			}
		}
	}
	if h := treeHeight(t, tree); h < 2 {
		t.Fatalf("height = %d, want >= 2 (splits must have happened)", h)
	}
}

// TestOnePartitionLayout: a one-partition table has the one table layout,
// name.p0 and name.wal, like every other table (see checkTableLayout).
func TestOnePartitionLayout(t *testing.T) { checkTableLayout(t, 1) }

// TestTableLayout pins the one table layout for a table of several
// partitions (see checkTableLayout).
func TestTableLayout(t *testing.T) { checkTableLayout(t, 3) }

// tableFiles is the file set of table "t" with n partitions.
func tableFiles(n int) []string {
	want := []string{}
	for i := 0; i < n; i++ {
		want = append(want, partName("t", i))
	}
	return append(want, "t.wal")
}

// checkTableLayout: a created table of n partitions occupies exactly
// name.p0 .. name.p<n-1> and name.wal, and every member's meta page
// records n and its own index; Files() and the files CheckAny adopts are
// that set.
func checkTableLayout(t *testing.T, n int) {
	t.Helper()
	want := tableFiles(n)
	mv := &memView{files: map[string][]byte{}}
	pt, err := CreatePartitionedTable(mv, "t", n, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(mv.files); !slices.Equal(got, want) {
		t.Fatalf("N=%d: table created files %v, want %v", n, got, want)
	}
	if got := pt.Files(); !slices.Equal(got, want) {
		t.Fatalf("N=%d: Files() = %v, want %v", n, got, want)
	}
	for i := 0; i < n; i++ {
		m := mv.files[partName("t", i)]
		if string(m[:8]) != pagerMagic || binary.BigEndian.Uint64(m[metaPartCount:]) != uint64(n) ||
			binary.BigEndian.Uint64(m[metaPartIndex:]) != uint64(i) {
			t.Fatalf("N=%d: member %d meta %q count %d index %d", n, i, m[:8],
				binary.BigEndian.Uint64(m[metaPartCount:]), binary.BigEndian.Uint64(m[metaPartIndex:]))
		}
	}

	view, store := newView(t, 64<<10)
	pt, err = CreatePartitionedTable(view, "t", n, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := pt.Put(u64key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := stegfs.Mount(store)
	if err != nil {
		t.Fatal(err)
	}
	view2 := fs2.NewHiddenView("db")
	files, err := CheckAny(view2, view2.Adopt, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(files, want) {
		t.Fatalf("N=%d: CheckAny adopted %v, want %v", n, files, want)
	}
}

// TestOpenPagerRequiresJournal: every commit goes through the table's
// journal, so a table whose journal is not reachable through the view must
// not open (it would otherwise run without crash-atomic commits), and the
// error names the journal. Checked for N = 1 and N = 3.
func TestOpenPagerRequiresJournal(t *testing.T) {
	for _, n := range []int{1, 3} {
		view, store := newView(t, 64<<10)
		pt, err := CreatePartitionedTable(view, "t", n, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if err := pt.Put(u64key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := pt.Sync(); err != nil {
			t.Fatal(err)
		}
		fs2, err := stegfs.Mount(store)
		if err != nil {
			t.Fatal(err)
		}
		view2 := fs2.NewHiddenView("db")
		for _, f := range tableFiles(n)[:n] {
			if err := view2.Adopt(f); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := OpenPartitionedTable(view2, "t"); err == nil || !strings.Contains(err.Error(), "t.wal") {
			t.Fatalf("N=%d: open without the journal = %v, want an error naming t.wal", n, err)
		}
		if err := view2.Adopt("t.wal"); err != nil {
			t.Fatal(err)
		}
		pt2, err := OpenPartitionedTable(view2, "t")
		if err != nil {
			t.Fatalf("N=%d: open with the journal adopted: %v", n, err)
		}
		if rows, _ := pt2.Rows(); pt2.Partitions() != n || rows != 30 {
			t.Fatalf("N=%d: reopened %d partitions holding %d rows", n, pt2.Partitions(), rows)
		}
	}
}

// TestStegDBRefusesOldFormat: a table of the format before this one
// (SGDB0001) is refused by that format's name, and opening it changes no
// byte of it. Such a table kept a journal file beside every member, the
// table's own in name.p0.wal, and none named name.wal. Here each member is
// rolled back to its first commit and name.p0.wal holds the second
// commit's journal, so an open that replayed it would change the members.
func TestStegDBRefusesOldFormat(t *testing.T) {
	for _, n := range []int{1, 3} {
		mv := &memView{files: map[string][]byte{}}
		tab, err := CreatePartitionedTable(mv, "old", n, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		first := map[string][]byte{}
		for round := 0; round < 2; round++ {
			if round == 1 {
				for i := 0; i < n; i++ {
					first[partName("old", i)] = slices.Clone(mv.files[partName("old", i)])
				}
			}
			for i := 0; i < 100; i++ {
				if err := tab.Put(u64key(i), []byte(fmt.Sprintf("row-%d-%d", i, round))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tab.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		wal := mv.files["old.wal"]
		if string(wal[:8]) != walMagic {
			t.Fatalf("N=%d: the second commit left journal magic %q", n, wal[:8])
		}
		delete(mv.files, "old.wal")
		for name, img := range first {
			copy(img, pagerMagicV1)
			mv.files[name] = img
			mv.files[name+walSuffix] = make([]byte, PageSize)
		}
		mv.files["old.p0.wal"] = wal
		before := map[string][]byte{}
		for name, img := range mv.files {
			before[name] = slices.Clone(img)
		}

		if _, err := OpenPartitionedTable(mv, "old"); err == nil || !strings.Contains(err.Error(), pagerMagicV1) {
			t.Fatalf("N=%d: opening an %s table = %v, want an error naming %s", n, pagerMagicV1, err, pagerMagicV1)
		}
		if !slices.Equal(keys(mv.files), keys(before)) {
			t.Fatalf("N=%d: open changed the file set %v to %v", n, keys(before), keys(mv.files))
		}
		for name, img := range before {
			if !bytes.Equal(mv.files[name], img) {
				t.Fatalf("N=%d: refusing the table changed %s", n, name)
			}
		}
	}
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
